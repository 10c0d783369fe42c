import copy
import gc
import json
import re
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import sovxxz.cli as cli
import sovxxz.lattice as lattice
import sovxxz.observables as obs
import sovxxz.sov as sov
import sovxxz.spectrum as spectrum
from sovxxz.cli import main
from sovxxz.config import DEFAULT_TOLERANCES, load_config
from sovxxz.errors import ParameterError
from sovxxz.model import DELTA_MIN_DEFAULT


def run(args):
    return main(args)


def count_builds(monkeypatch, builds: Counter, active=lambda: True):
    """Count ``monodromy_entries`` builds by point in ``builds``, through every
    package module that holds the function, while ``active()`` is true."""
    build = lattice.monodromy_entries

    def counted(params, lam):
        if active():
            builds[lam] += 1
        return build(params, lam)

    for name, module in list(sys.modules.items()):
        if name.startswith("sovxxz.") and getattr(module, "monodromy_entries", None) is build:
            monkeypatch.setattr(module, "monodromy_entries", counted)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestWriteReport:
    # a report is one line of compact JSON with sorted keys, in a file or on
    # standard output
    REPORT = {"schema": 1, "b": {"z": 1 + 2j, "a": np.int64(3)},
              "a": [np.complex128(complex(-0.0, 1e-300)), np.arange(2)], "pass": True}

    @staticmethod
    def check(text):
        decoded = json.loads(text)
        assert decoded == {"schema": 1, "b": {"z": [1.0, 2.0], "a": 3},
                           "a": [[-0.0, 1e-300], [0, 1]], "pass": True}
        assert text.count("\n") == 1
        assert text == json.dumps(decoded, sort_keys=True, separators=(",", ":")) + "\n"

    def test_file(self, tmp_path):
        out = tmp_path / "r.json"
        text = cli.write_report(self.REPORT, str(out))
        assert out.read_text(encoding="utf-8") == text
        self.check(text)

    def test_stdout(self, capsys):
        text = cli.write_report(self.REPORT, None)
        assert capsys.readouterr().out == text
        self.check(text)


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg.n == 3
        assert cfg.eta == 0.6 + 0.35j
        assert len(cfg.xi) == 3
        assert cfg.tolerances == DEFAULT_TOLERANCES

    def test_seed_override_changes_nodes(self):
        a = load_config(None, seed_override=1)
        b = load_config(None, seed_override=2)
        assert a.xi != b.xi

    def test_explicit_duplicate_xi_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "n": 2, "xi": [[0.1, 0.0], [0.1, 0.0]],
        }))
        with pytest.raises(ParameterError):
            load_config(cfg)

    def test_malformed_json_reports_location(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{\n  \"n\": 2,\n}")
        with pytest.raises(ParameterError, match="line"):
            load_config(cfg)

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ParameterError):
            load_config(None, tol_overrides={"nope": 1e-3})

    @pytest.mark.parametrize("config, flags", [
        pytest.param(None, ["--tol", "bethe_residual=abc"], id="tol-flag"),
        pytest.param({"n": "three"}, None, id="n"),
        pytest.param({"sites": ["a"]}, None, id="sites"),
        pytest.param({"tolerances": {"tq_residual": "x"}}, None, id="tolerances"),
        pytest.param({"xi": {"min_separation": "x"}}, None, id="min_separation"),
        pytest.param({"n": 2.9}, None, id="n-fractional"),
        pytest.param({"n": True}, None, id="n-boolean"),
        pytest.param({"n": 2, "kappa": True}, None, id="kappa-boolean"),
        pytest.param({"n": 2, "sites": [1.7]}, None, id="sites-fractional"),
        pytest.param({"n": 2, "seed": 1.5}, None, id="seed-fractional"),
        pytest.param({"n": 2, "xi": {"seed": 2.5}}, None, id="xi.seed-fractional"),
        pytest.param({"n": 2, "tolerances": {"tq_residual": True}}, None,
                     id="tolerance-boolean"),
        pytest.param({"n": 2}, ["--tol", "tq_residual=nan"], id="tol-nan"),
        pytest.param({"n": 2}, ["--tol", "tq_residual=inf"], id="tol-inf"),
        pytest.param({"n": 2}, ["--tol", "negation_closure=-1e-9"], id="tol-negative"),
        pytest.param({"n": 2, "seed": -3}, None, id="seed-negative"),
        pytest.param({"n": 2, "xi": {"seed": -3}}, None, id="xi.seed-negative"),
        pytest.param({"n": 2}, ["--seed", "-1"], id="seed-flag-negative"),
    ])
    def test_malformed_number_is_a_parameter_error(self, tmp_path, capsys, config, flags):
        args = ["spectrum", "--out", str(tmp_path / "r.json")] + (flags or [])
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content, name", [
        pytest.param(b'{"eta": [0.6, "a"]}', "'eta'", id="eta"),
        pytest.param(b'{"xi": {"box": {"re_range": "ab"}}}', "'xi.box.re_range'", id="xi.box"),
        pytest.param(b'{"xi": {"box": {"im_range": [0.4]}}}', "'xi.box.im_range'", id="xi.box-len"),
        pytest.param(b'{"xi": {"box": {"re_range": [0, 1e400]}}}', "'xi.box.re_range'",
                     id="xi.box-inf"),
        pytest.param(b'{"sites": 3}', "'sites'", id="sites"),
        pytest.param(b'{"operators": 3}', "'operators'", id="operators"),
        pytest.param(b'{"sites": 0}', "'sites'", id="sites-falsy"),
        pytest.param(b'{"representations": false}', "'representations'", id="representations"),
        pytest.param(b'{"tolerances": 0}', "'tolerances'", id="tolerances-falsy"),
        pytest.param(b'{"tolerances": [1e-3]}', "'tolerances'", id="tolerances"),
        pytest.param(b'{"seed": 1e400}', "'seed'", id="seed-overflow"),
        pytest.param(b'{"eta": NaN}', "'eta'", id="eta-nan"),
        pytest.param(b'{"kappa": [1.0, Infinity]}', "'kappa'", id="kappa-inf"),
        pytest.param(b'{"kappa_prime": 1e400}', "'kappa_prime'", id="kappa_prime-overflow"),
        pytest.param(b'{"n": 2, "xi": [0.1, NaN]}', "'xi[1]'", id="xi-nan"),
        pytest.param(b'{"xi": {"min_separation": NaN}}', "'xi.min_separation'",
                     id="min_separation-nan"),
        pytest.param(b'{"xi": {"min_separation": -0.1}}', "'xi.min_separation'",
                     id="min_separation-negative"),
        pytest.param(b'{"xi": {"min_separation": 0}}', "'xi.min_separation'",
                     id="min_separation-zero"),
        pytest.param(b'{"n": 2, "\xff": 1}', "cfg.json", id="not-utf8"),
        pytest.param(b'{"sites": [2, 2]}', "'sites'", id="sites-repeated"),
        pytest.param(b'{"sites": [1, 3, 1.0]}', "'sites'", id="sites-repeated-float"),
        pytest.param(b'{"operators": ["z", "-", "z"]}', "'operators'", id="operators-repeated"),
        pytest.param(b'{"representations": ["izergin", "izergin"]}', "'representations'",
                     id="representations-repeated"),
        pytest.param(b'{"schema": true}', "'schema'", id="schema-bool"),
        pytest.param(b'{"schema": 2}', "'schema'", id="schema-unsupported"),
        pytest.param(b'{"schema": "one"}', "'schema'", id="schema-text"),
    ])
    def test_wrong_shape_is_a_parameter_error(self, tmp_path, capsys, content, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err

    @pytest.mark.parametrize("config, key", [
        pytest.param({"n": 2, "tolerence": {"tq_residual": 1e-7}}, "tolerence", id="top"),
        pytest.param({"xi": {"min_seperation": 0.02}}, "min_seperation", id="xi"),
        pytest.param({"xi": {"box": {"re_rnage": [-1, 1]}}}, "re_rnage", id="xi.box"),
    ])
    def test_unknown_key_is_rejected(self, tmp_path, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(ParameterError, match=key):
            load_config(cfg)

    @pytest.mark.parametrize("where", ["config", "out"])
    def test_unusable_path_is_a_parameter_error(self, tmp_path, capsys, where):
        missing = tmp_path / "no_such_dir" / "file.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1}))
        args = ["spectrum", "--config", str(missing if where == "config" else cfg),
                "--out", str(missing if where == "out" else tmp_path / "r.json")]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(missing) in err

    @pytest.mark.parametrize("command", ["spectrum", "observables", "validate"])
    @pytest.mark.parametrize("config, name", [
        pytest.param({"sites": [2, 2]}, "'sites'", id="sites"),
        pytest.param({"operators": ["+", "+"]}, "'operators'", id="operators"),
        pytest.param({"representations": ["direct", "slavnov", "direct"]}, "'representations'",
                     id="representations"),
        pytest.param({"schema": True}, "'schema'", id="schema"),
    ])
    def test_new_refusals_in_every_command(self, tmp_path, capsys, command, config, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, **config}))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err
        assert not (tmp_path / "r.json").exists()

    def test_schema_parses_like_the_other_integer_fields(self, tmp_path):
        # a numeric string is read as its integer, as for "n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": "1", "n": "2"}))
        assert load_config(cfg).n == 2

    def test_small_min_separation_reaches_params(self, tmp_path):
        # xi seed 24 draws shift sets about 0.027 apart: admissible under
        # min_separation 0.01, closer than the model default of 0.05
        cfg = tmp_path / "close.json"
        cfg.write_text(json.dumps({"n": 4, "xi": {
            "seed": 24, "box": {"re_range": [-0.5, 0.5], "im_range": [-0.2, 0.2]},
            "min_separation": 0.01}}))
        params = load_config(cfg).params
        assert params.delta_min == 0.01
        assert 0.01 <= params.min_xi_separation() < DELTA_MIN_DEFAULT

    def test_default_separation_keeps_model_delta_min(self):
        assert load_config(None).params.delta_min == DELTA_MIN_DEFAULT

    @pytest.mark.parametrize("command", ["spectrum", "observables", "validate"])
    def test_zero_kappa_prime_rejected_in_every_command(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "kappa_prime": [0, 0]}))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2


class TestSpectrumTolerances:
    # every record tolerance gates certification; bethe_residual keeps the
    # bare command ids
    @pytest.mark.parametrize("command, tol", [
        pytest.param(command, tol,
                     id=command if tol == "bethe_residual" else f"{command}-{tol}")
        for tol in ("bethe_residual", "wronskian", "sum_rule")
        for command in ("spectrum", "observables", "validate")
    ])
    def test_certification_tolerance_applies_in_every_command(self, tmp_path,
                                                              command, tol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "r.json"),
                    "--tol", f"{tol}=1e-30"]) == 2

    def test_certification_error_names_the_record(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        assert run(["spectrum", "--config", str(cfg), "--tol", "bethe_residual=1e-30"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: record 0 \(tau\(xi_1\) = \S+, Bethe Jacobian "
                            r"condition number \d\.\d\de[+-]\d+\): bethe residual .*\n", err)


class TestValidateCommand:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["validate", "--out", str(out)]) == 0
        rep = read(out)
        assert rep["pass"] is True
        assert all(c["pass"] for c in rep["checks"].values())

    def test_duplicate_xi_config_fails_cleanly(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n": 2, "xi": [[0.1, 0.0], [0.1, 0.0]]}))
        assert run(["validate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("tol_args, code", [([], 1),
                                                (["--tol", "inverse_problem=1e-6"], 0)])
    def test_inverse_problem_tolerance_is_honoured(self, tmp_path, monkeypatch,
                                                   tol_args, code):
        # dressed operators 1e-7 off their embedding fail the default 1e-8
        # and pass a configured 1e-6; neither aborts the run
        dress = cli.dress_local_operator
        monkeypatch.setattr(cli, "dress_local_operator",
                            lambda *args, **kwargs: dress(*args, **kwargs) * (1 + 1e-7))
        out = tmp_path / "v.json"
        assert run(["validate", "--out", str(out), *tol_args]) == code
        check = read(out)["checks"]["inverse_problem"]
        assert 1e-8 < check["residual"] < 1e-6
        assert check["pass"] is (code == 0)

    def test_node_factors_built_once(self, tmp_path, monkeypatch):
        # the 8 n dressed operators of one run share their node factors: the
        # monodromy at each xi_m and xi_m - eta is built once and each
        # transfer factor takes one SVD (the spectrum's own work not counted)
        builds = Counter()
        svds = []
        in_spectrum = []
        svd, solve = np.linalg.svd, cli.solve_spectrum

        def counted_svd(*args, **kwargs):
            if not in_spectrum:
                svds.append(args[0].shape)
            return svd(*args, **kwargs)

        def uncounted_solve(*args, **kwargs):
            in_spectrum.append(True)
            try:
                return solve(*args, **kwargs)
            finally:
                in_spectrum.pop()

        count_builds(monkeypatch, builds, active=lambda: not in_spectrum)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(cli, "solve_spectrum", uncounted_solve)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        params = load_config(cfg).params
        assert run(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.json")]) == 0
        nodes = [x - shift for x in params.xi for shift in (0, params.eta)]
        assert [builds[x] for x in nodes] == [1] * len(nodes)
        assert svds == [(2**params.n, 2**params.n)] * params.n

    @pytest.mark.parametrize("side", ["kets", "bras"])
    def test_sov_checks_catch_a_perturbed_basis_row(self, basis3, side):
        # the actions and the measure hold at the noise floor on the basis
        # and fail on a copy with one row moved by 1e-6 relative
        params = basis3.params
        points = [(lam, lattice.monodromy_entries(params, lam))
                  for lam in (0.3 + 0.2j, -0.4 + 0.5j)]
        assert cli._sov_action_residual(basis3, points) < 1e-12
        assert cli._sov_measure_residual(basis3) < 1e-12
        bad = copy.copy(basis3)
        rows = getattr(basis3, side).copy()
        noise = np.random.default_rng(3).standard_normal(len(rows))
        rows[5] += 1e-6 * np.linalg.norm(rows[5]) * noise
        setattr(bad, side, rows)
        assert cli._sov_action_residual(bad, points) > 1e-8
        assert cli._sov_measure_residual(bad) > DEFAULT_TOLERANCES["sov_measure"]

    def test_impossible_tolerance_fails_without_crash(self, tmp_path):
        out = tmp_path / "v.json"
        code = run(["validate", "--out", str(out), "--tol", "sov_measure=1e-18",
                    "--tol", "identity_bench=1e-18"])
        assert code == 1
        rep = read(out)
        assert rep["pass"] is False
        assert not rep["checks"]["sov_measure"]["pass"]


class TestOneBasisPerOp:
    """An op builds one SoV basis, hands it down and drops it on return, and
    builds the monodromy once at each point it reads."""

    @pytest.mark.parametrize("command", ["validate", "spectrum", "observables"])
    def test_one_basis_per_op_released_on_return(self, tmp_path, monkeypatch, command):
        made = []
        init = sov.SovBasis.__init__

        def tracked(self, params):
            made.append(weakref.ref(self))
            init(self, params)

        monkeypatch.setattr(sov.SovBasis, "__init__", tracked)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        for _ in range(2):
            made.clear()
            assert run([command, "--config", str(cfg), "--out", str(tmp_path / "r.json")]) != 2
            gc.collect()
            assert len(made) == 1
            assert made[0]() is None

    def test_validate_builds_each_point_once(self, tmp_path, monkeypatch):
        builds = Counter()
        count_builds(monkeypatch, builds)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        loaded = load_config(cfg)
        params = loaded.params
        assert run(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.json")]) == 0
        g = np.random.default_rng(loaded.seed)
        lam, mu = (complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(2))
        points = [lam, mu, lam - params.eta, *params.xi,
                  *(x - params.eta for x in params.xi)]
        assert [builds[p] for p in points] == [1] * len(points)
        # besides these: the oracle's probe and the three certification probes
        assert sorted(builds.values()) == [1] * (len(points) + 4)

    def test_spectrum_builds_each_point_once(self, tmp_path, monkeypatch):
        builds = Counter()
        count_builds(monkeypatch, builds)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        params = load_config(cfg).params
        assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s.json")]) == 0
        assert [builds[x] for x in params.xi] == [1] * params.n
        # the three certification probes once; the oracle's probe once per
        # twist, kappa and kappa'
        assert sorted(builds.values()) == [1] * (params.n + 3) + [2]


class TestSpectrumCommand:
    def test_n2_records_and_pairing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        out = tmp_path / "s.json"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read(out)
        assert len(rep["records"]) == 4
        assert all(r["certified"] for r in rep["records"])
        taus = [complex(r["tau_at_xi"][0][0], r["tau_at_xi"][0][1])
                for r in rep["records"]]
        for t in taus:
            assert any(abs(t + s) < 1e-9 for s in taus)

    def test_n3_bethe_residuals(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["spectrum", "--out", str(out)]) == 0
        rep = read(out)
        assert len(rep["records"]) == 8
        assert all(r["bethe_residual"] < 1e-9 for r in rep["records"])

    def test_byte_identical_reports(self, tmp_path):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        assert run(["spectrum", "--out", str(out1), "--seed", "11"]) == 0
        assert run(["spectrum", "--out", str(out2), "--seed", "11"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestObservablesCommand:
    def test_representation_selector(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 2,
            "representations": ["direct", "tau_izergin"],
            "operators": ["z", "-"],
        }))
        out = tmp_path / "o.json"
        assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read(out)
        entry = rep["scalar_products"]["P0_Q1"]["values"]
        assert set(entry) == {"direct", "tau_izergin"}

    def test_same_twist_populates_orthogonality(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 2, "kappa": [1.0, 0.0], "kappa_prime": [1.0, 0.0],
            "operators": ["z", "-"],
        }))
        out = tmp_path / "o.json"
        assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read(out)
        assert rep["orthogonality"]
        assert rep["summary"]["orthogonality"]["pass"]

    def test_complex_numbers_written_as_pairs(self, tmp_path):
        out = tmp_path / "o.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "operators": ["z", "-"]}))
        assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read(out)
        dense = rep["scalar_products"]["P0_Q0"]["dense"]
        assert isinstance(dense, list) and len(dense) == 2
        assert all(isinstance(v, float) for v in dense)

    def test_raising_claim_reported_as_failing_check(self, tmp_path):
        # with both spin-flip operators enabled the raising/lowering equality
        # check is reported and fails for a generic spectrum pair set
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        out = tmp_path / "o.json"
        assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 1
        rep = read(out)
        assert rep["summary"]["form_factors"]["pass"]
        assert rep["summary"]["scalar_products"]["pass"]
        assert not rep["summary"]["pm_equality"]["pass"]

    def test_form_factor_check_needs_a_compared_operator(self, tmp_path):
        # with only the raising operator no form factor is compared with its
        # oracle, so the summary omits the check instead of passing it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "operators": ["+"]}))
        out = tmp_path / "o.json"
        assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 1
        summary = read(out)["summary"]
        assert "form_factors" not in summary
        assert not summary["pm_equality"]["pass"]

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "operators": ["z", "-"]}))
        out1 = tmp_path / "o1.json"
        out2 = tmp_path / "o2.json"
        assert run(["observables", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run(["observables", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pair_and_probe_work_built_once(self, tmp_path, monkeypatch):
        # each (P, Q) pair builds its alpha-free Slavnov halves once, and
        # its Slavnov and eigenvalue-labelled matrices once per formula (the
        # scalar product and the two form factors) for all sites, the
        # dense oracle embeds each local operator once per run, and the
        # certification probes build their transfer matrices once per spectrum
        calls = Counter()

        def count(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        count(obs, "slavnov_halves")
        count(obs, "slavnov_matrix")
        count(obs, "tau_matrix")
        count(cli, "local_op")
        count(spectrum, "transfer_k")
        count(cli, "solve_spectrum")
        n = 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": n}))
        assert run(["observables", "--config", str(cfg),
                    "--out", str(tmp_path / "o.json")]) == 1
        pairs = (2**n) ** 2
        assert calls["solve_spectrum"] == 1
        assert 0 < calls["slavnov_halves"] <= pairs
        assert calls["slavnov_matrix"] == calls["tau_matrix"] == 3 * pairs
        assert 0 < calls["local_op"] <= 3 * n
        assert 0 < calls["transfer_k"] <= 3 * calls["solve_spectrum"]
