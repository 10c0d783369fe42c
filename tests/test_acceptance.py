"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see the lines for passing tests).

Conventions: deviations of possibly-vanishing quantities are measured
relative to max(|a|, |b|, ||bra|| * ||ket||) so that structurally zero matrix
elements compare at the numerical noise floor.
"""

import cmath
import time

import numpy as np
import pytest

from conftest import KAPPA2, make_params, norm_scales, pair_context, poly, rel_dev, rng
from paper_forms import product_matrix, sp_product_check
from sovxxz import observables as obs
from sovxxz.cli import main as cli_main
from sovxxz.lattice import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    NodeFactors,
    dress_local_operator,
    elementary_matrix,
    local_op,
    monodromy_entries,
    transfer_eigenvalues,
)
from sovxxz.sov import SovBasis, matrix_element, separate_state
from sovxxz.spectrum import solve_spectrum

TOL_SOV_MEASURE = 1e-9
TOL_TQ = 1e-7
TOL_BETHE = 1e-9
TOL_DISCRETE = 1e-8
TOL_EIGENSTATE = 1e-8
TOL_CLOSURE = 1e-9
TOL_CROSS_REP = 1e-7
TOL_ORTHO = 1e-8
TOL_PRODUCT = 1e-7
TOL_PRODUCT_ENTRY = 1e-8
TOL_FF = 1e-7
TOL_PM_EQUAL = 1e-8
TOL_INVERSE = 1e-8
TOL_IDENTITY = 1e-9
TOL_EXTENSION = 1e-6
TOL_WRONSKIAN = 1e-8
TOL_SUM_RULE = 1e-8


def announce(tag: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_01_sov_measure(params3):
    t0 = time.perf_counter()
    basis = SovBasis(params3)
    # <h|k> = delta_{h,k} / V(xi^(h)), each row relative to its measure
    measure = 1.0 / basis.v_h
    worst = float(np.max(np.abs(basis.bras @ basis.kets.T - np.diag(measure))
                         / np.abs(measure)[:, None]))
    elapsed = time.perf_counter() - t0
    ok = worst < TOL_SOV_MEASURE and elapsed < 5.0
    assert announce("1", ok,
                    f"SoV measure, 64 pairs at N=3: worst {worst:.2e} "
                    f"(tol {TOL_SOV_MEASURE:.0e}), {elapsed:.2f}s")


def test_02_spectrum_completeness():
    t4 = None
    ok = True
    details = []
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        params = make_params(n)
        basis = SovBasis(params)
        # solve_spectrum returns only a spectrum whose every record is certified
        spectrum = solve_spectrum(basis)
        elapsed = time.perf_counter() - t0
        if n == 4:
            t4 = elapsed
        count = len(spectrum.table)
        res = spectrum.residuals
        res_ok = bool(np.all((res["tq"] < TOL_TQ) & (res["bethe"] < TOL_BETHE)
                             & (res["discrete_char"] < TOL_DISCRETE)
                             & (res["eigenstate"] < TOL_EIGENSTATE)))
        vals = np.sort_complex(spectrum.table.tau[:, 0])
        radius = np.max(np.abs(vals))
        # both read one full eigensolve at another twist, which the oracle's
        # eigenvectors only witness: the oracle's own spectrum is closed
        # under negation by construction
        other = transfer_eigenvalues(basis.at_xi[0], 1.3 + 0.2j, spectrum.vectors,
                                     spectrum.table.tau[:, 0], params.kappa)
        closure = np.max(np.abs(other - np.sort_complex(-other))) / np.max(np.abs(other))
        iso = np.max(np.abs(vals - other)) / radius
        ok = ok and count == 2**n and res_ok and closure < TOL_CLOSURE and iso < TOL_CLOSURE
        details.append(f"N={n}: {count} certified, closure {closure:.1e}, "
                       f"iso {iso:.1e}, {elapsed:.2f}s")
    ok = ok and t4 < 60.0
    assert announce("2", ok, "; ".join(details))


def test_03_scalar_product_agreement(params3, records3, states3):
    bras, _, kets2 = states3
    alpha = KAPPA2 / params3.kappa
    worst = 0.0
    dense = bras.embedded @ kets2.embedded.T
    scales = norm_scales(bras, kets2)
    for ip in range(8):
        for iq in range(8):
            scale = scales[ip, iq]
            context = pair_context(params3, records3, [ip], [iq])
            tau_ize, tau_slav = (v[0, 0] for v in obs.sp_tau(context, alpha))
            vals = [
                obs.sp_direct(context, alpha)[0, 0],
                obs.sp_izergin(context, alpha)[0, 0],
                obs.sp_slavnov(context, alpha)[0, 0],
                tau_ize,
                tau_slav,
                dense[ip, iq],
            ]
            for a in range(len(vals)):
                for b in range(a + 1, len(vals)):
                    worst = max(worst, rel_dev(vals[a], vals[b], scale))
    ok = worst < TOL_CROSS_REP
    assert announce("3", ok,
                    f"five representations + dense pairing over 64 ordered "
                    f"pairs: worst {worst:.2e} (tol {TOL_CROSS_REP:.0e})")


def test_04_orthogonality(params3, basis3, records3):
    kappa = params3.kappa
    bras = separate_state(basis3, records3.table, kappa, "bra")
    kets = separate_state(basis3, records3.table, kappa, "ket")
    dense = bras.embedded @ kets.embedded.T
    scales = norm_scales(bras, kets)
    worst = 0.0
    for ip in range(8):
        for iq in range(8):
            if ip == iq:
                continue
            formula = obs.sp_direct(pair_context(params3, records3, [ip], [iq]), 1.0)[0, 0]
            scale = scales[ip, iq]
            worst = max(worst, abs(formula) / scale, abs(dense[ip, iq]) / scale)
    ok = worst < TOL_ORTHO
    assert announce("4", ok,
                    f"same-twist distinct-eigenvalue overlaps: worst "
                    f"{worst:.2e} x norm product (tol {TOL_ORTHO:.0e})")


def test_05_product_identity(params3, records3):
    g = rng(505)
    worst = 0.0
    checked = 0
    roots = records3.table.roots
    for ip in range(8):
        for iq in range(8):
            if np.allclose(roots[ip], roots[iq]):
                continue  # the identity assumes pairwise distinct root sets
            for _ in range(5):
                alpha = complex(g.uniform(-1, 1), g.uniform(-1, 1))
                beta = complex(g.uniform(-1, 1), g.uniform(-1, 1))
                _, _, dev = sp_product_check(
                    pair_context(params3, records3, [ip], [iq]), alpha, beta)
                worst = max(worst, dev)
                checked += 1
    entry_worst = 0.0
    for ip, iq in [(0, 1), (2, 5), (6, 3)]:
        alpha = complex(g.uniform(0.2, 1), g.uniform(-1, 1))
        beta = cmath.exp(params3.eta) / alpha
        _, last, scale = product_matrix(params3, poly(records3, ip),
                                        poly(records3, iq), alpha, beta)
        entry_worst = max(entry_worst, float(np.max(np.abs(last))) / scale)
    ok = worst < TOL_PRODUCT and entry_worst < TOL_PRODUCT_ENTRY
    assert announce("5", ok,
                    f"{checked} product checks: worst {worst:.2e} (tol "
                    f"{TOL_PRODUCT:.0e}); Bethe last-line entries "
                    f"{entry_worst:.2e} (tol {TOL_PRODUCT_ENTRY:.0e})")


def test_06_form_factors(params3, records3, states3):
    t0 = time.perf_counter()
    bras, kets, _ = states3
    worst = 0.0
    scales = norm_scales(bras, kets)
    sites = (1, 2, 3)
    dense_z, dense_m = ([matrix_element(bras, local_op(op, site, 3), kets) for site in sites]
                        for op in (SIGMA_Z, SIGMA_MINUS))
    for ip in range(8):
        for iq in range(8):
            scale = scales[ip, iq]
            context = pair_context(params3, records3, [ip], [iq])
            for s, vz_roots, vz_tau, vm_roots, vm_tau in zip(
                    range(3), *obs.ff_sigma_z(context, sites)[:, 0, 0],
                    *obs.ff_sigma_pm(context, sites)[:, 0, 0]):
                bf_z, bf_m = dense_z[s][ip, iq], dense_m[s][ip, iq]
                worst = max(worst,
                            rel_dev(vz_roots, bf_z, scale),
                            rel_dev(vz_tau, bf_z, scale),
                            rel_dev(vz_roots, vz_tau, scale),
                            rel_dev(vm_roots, bf_m, scale),
                            rel_dev(vm_tau, bf_m, scale),
                            rel_dev(vm_roots, vm_tau, scale))
    elapsed = time.perf_counter() - t0
    ok = worst < TOL_FF and elapsed < 120.0
    assert announce("6", ok,
                    f"determinant vs dense matrix elements (sigma^z and the "
                    f"spin-flip entry), 64 pairs x 3 sites x both forms: worst "
                    f"{worst:.2e} (tol {TOL_FF:.0e}), {elapsed:.1f}s")


def test_06b_raising_lowering_coincidence(params3, states3):
    """Claimed equality of the raising and lowering form factors between the
    same pair of normalized eigenstates.

    Numerically the two matrix elements differ by kappa^{-2} times a
    pair-dependent sign (closed form at N=1: ratio kappa^{-2} on the diagonal),
    so this check fails on every pair class whose sign is -1; it is kept
    faithful rather than weakened.  See notes on the spin-flip convention in
    the README.
    """
    bras, kets, _ = states3
    worst = 0.0
    scales = norm_scales(bras, kets)
    for site in (1, 2, 3):
        bf_p = matrix_element(bras, local_op(SIGMA_PLUS, site, 3), kets)
        bf_m = matrix_element(bras, local_op(SIGMA_MINUS, site, 3), kets)
        for ip in range(8):
            for iq in range(8):
                worst = max(worst, rel_dev(bf_p[ip, iq], bf_m[ip, iq], scales[ip, iq]))
    ok = worst < TOL_PM_EQUAL
    assert announce("6b", ok,
                    f"raising vs lowering form factors on all pairs/sites: "
                    f"worst {worst:.2e} (tol {TOL_PM_EQUAL:.0e})")


def test_07_inverse_problem(params3):
    nodes = NodeFactors(params3, [monodromy_entries(params3, x) for x in params3.xi])
    worst = 0.0
    for site in (1, 2, 3):
        for i in (1, 2):
            for j in (1, 2):
                target = local_op(elementary_matrix(i, j), site, 3)
                for out in dress_local_operator(nodes, site, i, j):
                    worst = max(worst, np.linalg.norm(out - target)
                                / max(np.linalg.norm(target), 1.0))
    ok = worst < TOL_INVERSE
    assert announce("7", ok,
                    f"dressed local operators, both reductions, all sites and "
                    f"entries: worst {worst:.2e} (tol {TOL_INVERSE:.0e})")


def test_08_identity_bench(params3, records3):
    bench = obs.identity_bench(params3, records3.table, seed=2025)
    worst_id = max(v for k, v in bench.items() if not k.startswith("extension"))
    worst_ext = max(v for k, v in bench.items() if k.startswith("extension"))
    ok = worst_id < TOL_IDENTITY and worst_ext < TOL_EXTENSION
    assert announce("8", ok,
                    f"determinant identities: worst {worst_id:.2e} (tol "
                    f"{TOL_IDENTITY:.0e}); extension limit at x=30: "
                    f"{worst_ext:.2e} (tol {TOL_EXTENSION:.0e})")


def test_09_structure_checks(records3):
    worst_w = records3.residuals["wronskian"].max()
    worst_s = records3.residuals["sum_rule_defect"].max()
    ok = worst_w < TOL_WRONSKIAN and worst_s < TOL_SUM_RULE
    assert announce("9", ok,
                    f"quantum Wronskian worst {worst_w:.2e} (tol "
                    f"{TOL_WRONSKIAN:.0e}); sum-rule defect worst {worst_s:.2e} "
                    f"(tol {TOL_SUM_RULE:.0e})")


def test_10_determinism(tmp_path):
    pairs = []
    for name, args in [
        ("spectrum", ["spectrum", "--seed", "5"]),
        ("observables", ["observables", "--seed", "5"]),
        ("validate", ["validate", "--seed", "5"]),
    ]:
        out1 = tmp_path / f"{name}1.json"
        out2 = tmp_path / f"{name}2.json"
        cli_main(args + ["--out", str(out1)])
        cli_main(args + ["--out", str(out2)])
        pairs.append(out1.read_bytes() == out2.read_bytes())
    ok = all(pairs)
    assert announce("10", ok,
                    "byte-identical reports for repeated seeded runs "
                    f"(spectrum/observables/validate): {pairs}")
