import cmath
import json
import re
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import sovxxz.sov as sov
import sovxxz.spectrum as spectrum
from conftest import certified_chain, make_params, poly, rel_dev, rng, tau
from sovxxz.cli import main
from sovxxz.config import DEFAULT_TOLERANCES
from sovxxz.errors import (
    AmbiguousNullspaceError,
    CertificationError,
    DegenerateSpectrumError,
    ParameterError,
    ParityError,
)
from sovxxz.lattice import spectrum_oracle
from sovxxz.model import (
    IPI,
    InterpolationBasis,
    ModelParams,
    QTable,
    a_frak_values,
    canonical_roots,
    dist_mod_2ipi,
    f_tilde_values,
    half_period_values,
    q_table,
    residual_grid,
)
from sovxxz.spectrum import (
    certify,
    chain_values,
    discrete_char_residual,
    q_from_tau,
    refine_bethe,
    tq_residual,
)


def n1_root_closed_form(params, tau_xi1: complex) -> complex:
    """Single-site Bethe root from the functional relation at the node:
    tau(xi) sinh((xi - q)/2) = -sinh(eta) sinh((xi - q)/2 - eta/2)."""
    eta = params.eta
    se = cmath.sinh(eta)
    # tanh(u) = sinh(eta) sinh(eta/2) / (tau + sinh(eta) cosh(eta/2)), u = (xi-q)/2
    t = se * cmath.sinh(eta / 2) / (tau_xi1 + se * cmath.cosh(eta / 2))
    u = cmath.atanh(t)
    return params.xi[0] - 2 * u


class TestQFromTau:
    def test_n1_closed_form(self):
        params = make_params(1)
        basis = sov.SovBasis(params)
        taus, _ = spectrum_oracle(params, basis.at_xi)
        chain = chain_values(basis, 4242)
        for i in range(len(taus)):
            roots = q_from_tau(params, taus[i:i + 1], chain)[0]
            expected = n1_root_closed_form(params, taus[i, 0])
            assert dist_mod_2ipi(roots[0], expected) < 1e-10

    def test_refusal_in_a_batch_names_the_lowest_record(self, params3, basis3, records3):
        # tau = 0 leaves no one-dimensional nullspace; of records 5 and 6,
        # the refusal names the lower
        chain = chain_values(basis3, 4242)
        taus = records3.table.tau.copy()
        taus[5] = taus[6] = 0
        with pytest.raises(AmbiguousNullspaceError,
                           match=r"^record 5: nullspace not one-dimensional"):
            q_from_tau(params3, taus, chain)

    def test_negated_pair_gives_shifted_roots(self, params3, records3):
        t = records3.table
        vals = t.tau[:, 0]
        for i in range(len(t)):
            j = int(np.argmin(abs(vals + vals[i])))
            assert np.all(dist_mod_2ipi(t.roots[i], canonical_roots(t.roots[j] + IPI)) < 1e-7)

    def test_sum_rule_integer(self, params3, records3):
        for roots in records3.table.roots.tolist():
            s = sum(roots) - sum(x - params3.eta / 2 for x in params3.xi)
            k = round(s.imag / np.pi)
            assert abs(s - 1j * np.pi * k) < 1e-7


class TestRefineBethe:
    def test_fixed_point(self, params3, records3):
        roots = records3.table.roots[0]
        refined = refine_bethe(params3, [roots])[0][0]
        for a, b in zip(refined, roots):
            assert abs(a - b) < 1e-12

    def test_perturbed_roots_converge_back(self, params3, records3):
        g = rng(41)
        for roots in records3.table.roots[:4]:
            noisy = [q + 1e-4 * complex(g.uniform(-1, 1), g.uniform(-1, 1))
                     for q in roots]
            refined = refine_bethe(params3, canonical_roots([noisy]))[0][0]
            for a, b in zip(refined, roots):
                assert abs(a - b) < 1e-10

    def test_refined_bethe_ratio(self, basis3, monkeypatch):
        # each record below 2^(N-1) reports, bit for bit, the metric
        # max_j |a_frak(q_j) - 1| of refine_bethe's last evaluation of it, and
        # record 2^N-1-i reports record i's; each is below the tolerance and
        # equal, up to rounding, to that ratio read from its own table row
        returned = []
        refine = spectrum.refine_bethe

        def keep(*args):
            returned.append(refine(*args))
            return returned[-1]

        monkeypatch.setattr(spectrum, "refine_bethe", keep)
        result = spectrum.solve_spectrum(basis3)
        (_, metric), = returned
        assert len(metric) == 4
        assert result.residuals["bethe"].tolist() == metric.tolist() + metric[::-1].tolist()
        metric = result.residuals["bethe"]
        assert np.all(metric < 1e-9)
        t = result.table
        ratio = a_frak_values(t.a_r, t.d_r, t.r_eta, t.r_eta_plus)
        assert np.all(abs(metric - np.max(np.abs(ratio - 1), axis=1)) < 1e-14)

    def test_refinement_never_moves_certified_roots(self, params3, records3):
        for roots in records3.table.roots:
            refined = refine_bethe(params3, [roots])[0][0]
            moved = max(abs(a - b) for a, b in zip(refined, roots))
            assert moved < 1e-8


class TestBetheKernel:
    # the batched Bethe system against checks that do not share its build:
    # the residual a(q) Q(q - eta) - d(q) Q(q + eta) per root, each term
    # from a(q), d(q) and half_period_values, and a
    # central difference of its own residual for the Jacobian, for one root
    # set and for each root set of a (3, N) stack
    @staticmethod
    def check_kernel(n, lead):
        params = make_params(n)
        g = rng(40 + n)
        roots = np.array([complex(g.uniform(-1, 1), g.uniform(-1, 1))
                          for _ in range(n * int(np.prod(lead)))]).reshape(lead + (n,))
        f, jac, scale, gated = spectrum._bethe_system(params, roots)
        assert f.shape == lead + (n,) and jac.shape == lead + (n, n)
        assert scale.shape == gated.shape == lead
        for at in np.ndindex(lead):
            q = roots[at]
            ta = params.a_fn(q) * half_period_values(q, q - params.eta)
            td = params.d_fn(q) * half_period_values(q, q + params.eta)
            assert np.all(np.abs(f[at] - (ta - td)) <= 1e-13 * np.abs(ta - td))
            assert rel_dev(scale[at], np.max(np.abs(ta) + np.abs(td))) < 1e-13
            assert rel_dev(gated[at], np.max(np.abs((ta - td) / ta))) < 1e-13
            h = 1e-6
            for m in range(n):
                step = np.zeros(n, dtype=np.complex128)
                step[m] = h
                fd = (spectrum._bethe_system(params, roots[at] + step)[0]
                      - spectrum._bethe_system(params, roots[at] - step)[0]) / (2 * h)
                assert np.max(np.abs(jac[at][:, m] - fd)) < 1e-7 * np.max(np.abs(jac[at]))

    @pytest.mark.parametrize("n", [3, 6])
    def test_residual_and_jacobian(self, n):
        self.check_kernel(n, ())

    @pytest.mark.parametrize("n", [3, 6])
    def test_residual_and_jacobian_on_a_stack(self, n):
        self.check_kernel(n, (3,))

    def test_collision_guard_names_the_pair(self, params3):
        # two roots 1e-7 apart modulo 2*pi*i stay together under the first step
        q = 0.3 + 0.2j
        with pytest.raises(DegenerateSpectrumError, match="Bethe roots 0, 1 collided"):
            refine_bethe(params3, [(q, q + 2j * np.pi + 1e-7, -0.5 + 0.1j)])

    def test_collision_in_a_batch_names_its_record(self, params3, records3):
        # the same pair in record 2 of a 4-record batch; the others converge
        q = 0.3 + 0.2j
        roots = records3.table.roots[:4].copy()
        roots[2] = (q, q + 2j * np.pi + 1e-7, -0.5 + 0.1j)
        with pytest.raises(DegenerateSpectrumError,
                           match=r"^record 2: Bethe roots 0, 1 collided"):
            refine_bethe(params3, roots)


class TestCertify:
    def test_all_records_certified(self, params3, records3):
        # a returned spectrum holds every record, each within its tolerances
        assert len(records3.table) == 8
        res = records3.residuals
        assert all(v.shape == (8,) for v in res.values())
        assert np.all(res["tq"] < 1e-7)
        assert np.all(res["bethe"] < 1e-9)
        assert np.all(res["discrete_char"] < 1e-8)
        assert np.all(res["eigenstate"] < 1e-8)

    def test_tampered_tau_fails_discrete_check(self, params3, basis3, records3):
        # record 0 and its partner 7, record 0's tau tampered
        t = records3.table
        bad = t.tau[[0, 7]].copy()
        bad[0, 0] *= 1.01
        chain = chain_values(basis3, 4242)
        bad_table = q_table(params3, t.roots[:1], bad, [])
        assert discrete_char_residual(bad_table, chain)[0] > 1e-3
        with pytest.raises(CertificationError, match=r"^record 0 "):
            certify(params3, bad, t.roots[:1], records3.residuals["bethe"][:1], chain)

    def test_refusal_in_a_batch_names_its_record(self, params3, basis3, records3):
        # a tampered tau at index 5 of the 8-record batch, the partner of
        # record 2: the refusal names record 5, and the batch without the
        # pair (2, 5) certifies
        taus = records3.table.tau.copy()
        roots = records3.table.roots
        bethe = records3.residuals["bethe"]
        taus[5, 0] *= 1.01
        chain = chain_values(basis3, 4242)
        with pytest.raises(CertificationError,
                           match=r"^record 5 \(tau\(xi_1\) = .*discrete_char residual"):
            certify(params3, taus, roots[:4], bethe[:4], chain)
        others = [0, 1, 3, 4, 6, 7]
        # certify returns a spectrum only when every record passes
        certified = certify(params3, taus[others], roots[[0, 1, 3]], bethe[[0, 1, 3]], chain)
        assert len(certified.table) == 6
        assert certified.table.roots.tolist() == roots[others].tolist()

    # gate -> the input of record 0 that carries the defect: tau(xi_1) scaled
    # by 1 + defect, the first root moved by defect, or the Bethe residual
    # that refine_bethe hands over set to defect
    RECORD_DEFECTS = {"tq": "tau", "discrete_char": "tau", "eigenstate": "tau",
                      "wronskian": "root", "sum_rule_defect": "root", "bethe": "bethe"}

    @pytest.mark.parametrize("gate", sorted(spectrum.GATES))
    def test_record_gates_catch_an_injected_defect(self, params3, basis3, records3, gate):
        # each gate reads a defect of 1e-6 to within a factor 10 and refuses
        # the record at its default tolerance, naming itself; at N = 3 they
        # read 2.5e-7 (tq), 3.3e-6 (discrete_char), 2.8e-6 (eigenstate),
        # 4.8e-7 (wronskian) and 1.0e-6 (sum_rule_defect).  bethe is the
        # value refine_bethe hands over, which certify does not recompute: a
        # root moved after the polish still reads 7.8e-16 there
        defect = 1e-6
        t = records3.table
        taus, roots = t.tau[[0, 7]].copy(), t.roots[:1].copy()
        bethe = records3.residuals["bethe"][:1].copy()
        target = self.RECORD_DEFECTS[gate]
        if target == "tau":
            taus[0, 0] *= 1 + defect
        elif target == "root":
            roots[0, 0] += defect
        else:
            bethe[0] = defect
        with pytest.raises(CertificationError, match=r"^record 0 ") as err:
            certify(params3, taus, roots, bethe, chain_values(basis3, 4242))
        found = re.search(rf"[:;] {gate} residual (\S+) > ([^;]+)", str(err.value))
        assert found is not None, str(err.value)
        residual, tol = map(float, found.groups())
        assert defect / 10 < residual < 10 * defect
        assert tol == DEFAULT_TOLERANCES[spectrum.GATES[gate]] < residual

    def test_table_equals_fresh_evaluation(self, params3, records3):
        # certify stores one table of every record; each record's entries are
        # the values a fresh scalar evaluation gives, to 1e-13 relative (the table evaluates each
        # polynomial as one batched row product), whether a root enters as a
        # Python or a numpy complex
        def vec(values):
            return np.array(list(values), dtype=np.complex128)

        def at(roots, lam):  # Q of the roots at the one point lam
            return half_period_values(roots, [lam])[0]

        def close(got, want):
            return got.shape == want.shape and all(
                rel_dev(a, b) <= 1e-13 for a, b in zip(got.ravel(), want.ravel()))

        eta, xi = params3.eta, params3.xi
        grid = residual_grid(params3)
        g = rng(71)
        synthetic = canonical_roots([complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)])
        # each case: the table, the record, its roots, tau(xi_k) and the grid
        # points; the record's partner is row len - 1 - i of the table
        t = records3.table
        cases = [(t, i, poly(records3, i), t.tau[i], grid[0]) for i in range(len(t))]
        cases.append((q_table(params3, [synthetic], None, []), 0, synthetic, None, []))
        # the table reads Qhat on the grid from Q's own cosh values, with the
        # sign of each root's 2*pi*i wrap: a root at Im q = 0 puts q + i*pi on
        # the strip edge, where it does not wrap; a root with Im q > 0 wraps,
        # unless q + i*pi rounds onto the edge
        on_edge = canonical_roots([0.4 + 0j, -0.3 - 0.6j, 0.1 - 0.2j])
        wraps = canonical_roots([0.2 + 0.7j, -0.5 + 0.1j, 0.6 - 0.4j])
        rounds = canonical_roots([0.5 + 1e-17j, -0.3 - 0.6j, 0.1 + 0.2j])
        assert 0.4 + 1j * np.pi in canonical_roots(on_edge + IPI)
        assert 0.2 + (0.7 - np.pi) * 1j in canonical_roots(wraps + IPI)
        assert 0.5 + 1j * np.pi in canonical_roots(rounds + IPI)
        cases += [(q_table(params3, [q], None, grid), 0, q, None, grid[0])
                  for q in (on_edge, wraps, rounds)]
        for whole, i, q_roots, tau_xi, points in cases:
            table, twin = whole.take(i), whole.take(len(whole) - 1 - i)
            partner = canonical_roots(q_roots + IPI)
            assert table.roots.tolist() == q_roots.tolist()
            if i < len(whole) // 2:  # a given record: its partner's roots are made from its own
                assert twin.roots.tolist() == partner.tolist()
            else:  # a partner: its twin's roots are its own shifted back, up to rounding
                assert np.all(dist_mod_2ipi(twin.roots, partner) <= 1e-15)
            assert (table.tau is None) if tau_xi is None else np.array_equal(table.tau, tau_xi)
            assert close(vec(table.x), vec(at(q_roots, x) for x in xi))
            assert close(vec(table.x_eta), vec(at(q_roots, x - eta) for x in xi))
            assert close(vec(table.x_ipi), vec(at(q_roots, x + IPI) for x in xi))
            assert close(vec(table.x_eta_ipi), vec(at(q_roots, x - eta + IPI) for x in xi))
            for roots in (q_roots.tolist(), q_roots):
                assert close(vec(table.a_r), vec(params3.a_fn(q) for q in roots))
                assert close(vec(table.d_r), vec(params3.d_fn(q) for q in roots))
                assert close(vec(table.exp_r), vec(cmath.exp(q) for q in roots))
                assert close(vec(table.r_eta), vec(at(q_roots, q - eta) for q in roots))
                assert close(vec(table.r_eta_plus), vec(at(q_roots, q + eta) for q in roots))
                assert close(vec(table.r_ipi), vec(at(q_roots, q + IPI) for q in roots))
                assert close(vec(table.sinh_x), vec(
                    np.prod([cmath.sinh(x - q) for q in roots]) for x in xi))
            assert close(np.concatenate([table.grid, twin.grid], axis=-1).reshape(-1, 6), vec(
                v for lam in points
                for v in (at(q_roots, lam), at(q_roots, lam - eta), at(q_roots, lam + eta),
                          at(partner, lam), at(partner, lam - eta), at(partner, lam + eta))
            ).reshape(-1, 6))

    def test_negation_pair_shares_discrete_products(self, params3, records3):
        vals = records3.table.tau[:, 0]
        for i in range(len(vals)):
            j = int(np.argmin(abs(vals + vals[i])))
            rec, partner = tau(params3, records3, i), tau(params3, records3, j)
            for x in params3.xi:
                a = rec(x) * rec(x - params3.eta)
                b = partner(x) * partner(x - params3.eta)
                assert rel_dev(a, b) < 1e-9


class TestPartners:
    # record 2^N-1-i of a spectrum is record i's i*pi-shifted partner, built
    # by model.q_table from record i's table row, not extracted or polished
    # on its own

    @pytest.mark.parametrize("n, kappa", [(3, 1.0), (4, 1.0), (5, 1.0), (6, 1.0),
                                          (3, 0.8 - 0.3j), (6, 0.8 - 0.3j)])
    def test_partner_rows_equal_fresh_evaluation(self, n, kappa):
        # each partner row equals a fresh q_table evaluation at its own roots
        # to 1e-13 relative, field by field (the odd-N signs of r_ipi and
        # r_eta included), its Qhat on the grid (its twin's Q) included; its
        # roots are canonical_roots(twin's roots + i*pi), bit for bit, and
        # its Bethe residual is its twin's; the whole table is one q_table
        # call on the extracted rows, bit for bit
        basis, whole = certified_chain(n, kappa)
        params, t = basis.params, whole.table
        half = len(t) // 2
        rows = np.arange(half, 2 * half)
        twins = 2 * half - 1 - rows
        grid = residual_grid(params)
        assert t.roots[rows].tolist() == canonical_roots(t.roots[twins] + IPI).tolist()
        assert t.tau[rows].tobytes() == (-t.tau[twins]).tobytes()
        assert whole.residuals["bethe"][rows].tolist() == whole.residuals["bethe"][twins].tolist()
        fresh = q_table(params, t.roots[rows], np.concatenate([t.tau[rows], t.tau[:half]]), grid)
        extracted = q_table(params, t.roots[:half], t.tau, grid)

        def with_hat(table):  # every field, and the grid's Qhat as one more
            return {**{f.name: getattr(table, f.name) for f in fields(QTable)},
                    "hat grid": table.grid[::-1]}

        fresh, extracted = with_hat(fresh), with_hat(extracted)
        for name, value in with_hat(t).items():
            got, want = value[rows], fresh[name][:half]
            scale = np.maximum(np.maximum(abs(got), abs(want)), 1e-30)
            assert got.shape == want.shape and np.all(abs(got - want) <= 1e-13 * scale), name
            assert value.tobytes() == extracted[name].tobytes(), name

    def test_partner_gates_read_its_own_tau(self, params3, basis3, records3):
        # a defect of 1e-6 in the eigenvalue of record 7, the partner of
        # record 0, trips the three gates that read tau, on record 7, by name;
        # its roots are record 0's shifted ones and pass the others
        t = records3.table
        taus = t.tau.copy()
        taus[7, 0] *= 1 + 1e-6
        with pytest.raises(CertificationError, match=r"^record 7 ") as err:
            certify(params3, taus, t.roots[:4], records3.residuals["bethe"][:4],
                    chain_values(basis3, 4242))
        for gate in spectrum.GATES:
            found = re.search(rf"[:;] {gate} residual (\S+) > ([^;]+)", str(err.value))
            if gate in ("tq", "discrete_char", "eigenstate"):
                assert found is not None, str(err.value)
                residual, tol = map(float, found.groups())
                assert tol == DEFAULT_TOLERANCES[spectrum.GATES[gate]] < residual
            else:
                assert found is None, str(err.value)

    def test_certify_needs_a_partner_for_every_root_set(self, params3, basis3, records3):
        t = records3.table
        with pytest.raises(ParameterError, match=r"^8 eigenvalues for 3 root sets"):
            certify(params3, t.tau, t.roots[:3], records3.residuals["bethe"][:3],
                    chain_values(basis3, 4242))

    def test_unpaired_spectrum_is_refused(self, basis3, monkeypatch):
        # the oracle must pair row 7-i with row i negated; a spectrum that
        # breaks the pairing by one rounding is refused before extraction
        oracle, extracted = spectrum.spectrum_oracle, []

        def unpaired(params, at_xi):
            taus, vectors = oracle(params, at_xi)
            taus = taus.copy()
            taus[6, 1] *= 1 + 1e-15
            return taus, vectors

        monkeypatch.setattr(spectrum, "spectrum_oracle", unpaired)
        monkeypatch.setattr(spectrum, "q_from_tau", lambda *args: extracted.append(args))
        with pytest.raises(ParityError, match=r"^record 1: tau\(xi_k\) is not the negation "
                                              r"of record 6's"):
            spectrum.solve_spectrum(basis3)
        assert extracted == []

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_extraction_and_polish_see_half_the_records(self, n, monkeypatch):
        # one solve hands q_from_tau and refine_bethe the 2^(N-1) records
        # below 2^(N-1), once each, and certifies all 2^N
        calls, records = Counter(), Counter()

        def count(name):
            inner = getattr(spectrum, name)

            def wrapper(params, rows, *args):
                calls[name] += 1
                records[name] += len(rows)
                return inner(params, rows, *args)
            monkeypatch.setattr(spectrum, name, wrapper)

        count("q_from_tau")
        count("refine_bethe")
        assert len(spectrum.solve_spectrum(sov.SovBasis(make_params(n))).table) == 2**n
        assert calls == {"q_from_tau": 1, "refine_bethe": 1}
        assert records == {"q_from_tau": 2**(n - 1), "refine_bethe": 2**(n - 1)}


class TestPipeline:
    def test_completeness_n2(self, records2):
        # a returned spectrum holds every record, each within its tolerances
        assert len(records2.table) == 4
        assert all(np.all(records2.residuals[name] <= DEFAULT_TOLERANCES[key])
                   for name, key in spectrum.GATES.items())

    def test_izergin_weight_equals_eigenvalue_ratio(self, params3, records3):
        # f_tilde(xi_i) = P(xi_i-eta+i*pi) Q(xi_i) / (P(xi_i+i*pi) Q(xi_i-eta))
        # = -tau_P(xi_i)/tau_Q(xi_i) for certified pairs
        xi, eta = np.asarray(params3.xi), params3.eta
        for ip in range(3):
            p_eta_ipi, p_ipi = half_period_values(poly(records3, ip), [xi - eta + IPI, xi + IPI])
            for iq in range(3, 6):
                q_x, q_eta = half_period_values(poly(records3, iq), [xi, xi - eta])
                lhs = f_tilde_values(p_eta_ipi, q_x, p_ipi, q_eta)
                for k, x in enumerate(params3.xi):
                    rhs = -tau(params3, records3, ip)(x) / tau(params3, records3, iq)(x)
                    assert rel_dev(lhs[k], rhs) < 1e-8

    def test_tq_residual_of_certified_pairing_is_tiny(self, basis3, records3):
        chain = chain_values(basis3, 4242)
        for i in range(len(records3.table)):
            assert tq_residual(records3.table.take([i]), chain)[0] < 1e-12

    def test_chain_work_built_once_per_spectrum(self, params3, basis3, monkeypatch):
        # the residual grid and a, d on it are evaluated once per spectrum,
        # and separate states read the basis's Vandermonde table instead of
        # recomputing it
        draws = []
        grid = spectrum.residual_grid
        chain_calls = Counter()

        def counted_grid(*args, **kwargs):
            draws.append(grid(*args, **kwargs))
            return draws[-1]

        def count_chain(name):
            inner = getattr(ModelParams, name)

            def wrapper(self, lam):
                for point in np.ravel(lam):
                    chain_calls[name, complex(point)] += 1
                return inner(self, lam)
            monkeypatch.setattr(ModelParams, name, wrapper)

        def no_vandermonde(xs):
            raise AssertionError("vandermonde called inside separate_state")

        monkeypatch.setattr(spectrum, "residual_grid", counted_grid)
        count_chain("a_fn")
        count_chain("d_fn")
        table = spectrum.solve_spectrum(basis3).table
        assert len(draws) == 1
        for lam in draws[0][0]:
            assert chain_calls["a_fn", lam] <= 1
            assert chain_calls["d_fn", lam] <= 1
        monkeypatch.setattr(sov, "vandermonde", no_vandermonde)
        for normalized in (True, False):
            for side in ("ket", "bra"):
                sov.separate_state(basis3, table, params3.kappa, side, normalized=normalized)

    def test_eigenvalue_independent_work_done_once_per_solve(self, params3, basis3,
                                                             monkeypatch):
        # every tau shares one interpolation basis, whose weights are
        # computed once per point; the T-Q sample points are drawn once, and
        # a, d at them and at xi_j, xi_j - eta are evaluated once per solve,
        # not once per record (points are counted inside array calls)
        weighed = Counter()
        draws = []
        chain_calls = Counter()
        weigh = InterpolationBasis.weights
        sample = spectrum._tq_sample_points

        def counted_weights(basis, points):
            for lam in np.ravel(points):
                weighed[complex(lam)] += 1
            return weigh(basis, points)

        def counted_sample(*args, **kwargs):
            draws.append(sample(*args, **kwargs))
            return draws[-1]

        def count_chain(name):
            inner = getattr(ModelParams, name)

            def wrapper(self, lam):
                for point in np.ravel(lam):
                    chain_calls[name, complex(point)] += 1
                return inner(self, lam)
            monkeypatch.setattr(ModelParams, name, wrapper)

        monkeypatch.setattr(InterpolationBasis, "weights", counted_weights)
        monkeypatch.setattr(spectrum, "_tq_sample_points", counted_sample)
        count_chain("a_fn")
        count_chain("d_fn")
        assert len(spectrum.solve_spectrum(basis3).table) == 8
        assert weighed and max(weighed.values()) == 1
        assert len(draws) == 1
        for lam in draws[0]:
            assert chain_calls["a_fn", lam] == 1
            assert chain_calls["d_fn", lam] == 1
        for x in params3.xi:
            assert chain_calls["a_fn", x] == 1
            assert chain_calls["d_fn", x - params3.eta] == 1

    def test_one_batch_per_spectrum(self, basis3, monkeypatch):
        # each phase runs once over all 2^N records, with one SVD of the
        # stacked T-Q systems and one eigensolve of the stacked companions;
        # the roots cross the phases as one array, canonicalized once in
        # q_from_tau and once in refine_bethe, so no record's roots are
        # canonicalized on their own
        calls = Counter()

        def count(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        phases = ("q_from_tau", "refine_bethe", "certify", "eigenstate_residual")
        for name in phases:
            count(spectrum, name)
        count(np.linalg, "svd")
        count(np.linalg, "eigvals")
        count(spectrum, "canonical_roots")
        assert len(spectrum.solve_spectrum(basis3).table) == 8
        assert calls == {**{name: 1 for name in phases + ("svd", "eigvals")},
                         "canonical_roots": 2}

    @pytest.mark.parametrize("n", [3, 6])
    def test_batch_equals_each_record_alone(self, n):
        # every record makes the decisions it makes alone: the roots and
        # residuals of record i and its partner 2^N-1-i from the whole
        # spectrum equal those of record i run as a batch of one, certified
        # with its partner
        params = make_params(n)
        basis = sov.SovBasis(params)
        whole = spectrum.solve_spectrum(basis)
        chain = chain_values(basis, 4242)
        count = len(whole.table)
        for i in range(count // 2):
            rows = [i, count - 1 - i]
            taus = whole.table.tau[rows]
            roots, bethe = refine_bethe(params, q_from_tau(params, taus[:1], chain))
            alone = certify(params, taus, roots, bethe, chain)
            for k, row in enumerate(rows):
                assert all(rel_dev(a, b) <= 1e-13 for a, b in zip(alone.table.roots[k],
                                                                   whole.table.roots[row]))
                for name, value in alone.residuals.items():
                    assert rel_dev(value[k], whole.residuals[name][row]) <= 1e-13

    def test_structure_outputs_populated(self, records3):
        assert set(records3.wronskian_sign.tolist()) <= {-1, 1}
        assert records3.sum_rule_k.dtype.kind == "i" and records3.sum_rule_k.shape == (8,)
        assert np.all(records3.residuals["wronskian"] < 1e-8)
        assert np.all(records3.residuals["sum_rule_defect"] < 1e-8)


class TestCertificationEnvelope:
    # Seeds fixed before the Bethe polish on the gated metric and the true
    # root-collision guard: all but (7, 3) failed to certify, on a Bethe
    # residual just above 1e-9 or (6, 100024) on a 0.011 root distance
    # refused as a collision.
    @pytest.mark.parametrize("n, seed", [(6, 100004), (6, 100012), (6, 100024),
                                         (7, 1), (7, 2), (7, 3), (7, 4), (8, 1)])
    def test_every_record_certifies(self, tmp_path, n, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": n}))
        out = tmp_path / "s.json"
        assert main(["spectrum", "--config", str(cfg), "--seed", str(seed),
                     "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert len(records) == 2**n
        assert all(r["certified"] and r["bethe_residual"] <= DEFAULT_TOLERANCES["bethe_residual"]
                   for r in records)
