import copy
import dataclasses
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import threading
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import make_params, move_one_eigenvalue

import sovxxz.cli as cli
import sovxxz.lattice as lattice
import sovxxz.observables as obs
import sovxxz.sov as sov
import sovxxz.spectrum as spectrum
from sovxxz.cli import main
from sovxxz.config import DEFAULT_TOLERANCES, load_config
from sovxxz.errors import (
    CertificationError,
    DegenerateSpectrumError,
    DimensionError,
    ParameterError,
)
from sovxxz.linalg import MAX_EIG_DIM, MAX_SITES, eig_dense
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
    # standard output; of what json cannot write itself, the commands hand it
    # only complex numbers
    REPORT = {"schema": 1, "b": {"z": 1 + 2j, "a": 3},
              "a": [np.complex128(complex(-0.0, 1e-300)), [0, 1]], "pass": True}

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

    def test_other_objects_refused(self):
        for value in (np.int64(3), np.arange(2)):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                cli.write_report({"a": value}, None)

    @pytest.mark.parametrize("command, config", [
        ("validate", {"n": 2}), ("spectrum", {"n": 3}), ("observables", {"n": 2})])
    def test_text_is_what_the_cycle_checked_encoder_writes(self, tmp_path, monkeypatch,
                                                           command, config):
        # a command's report is a tree, so leaving out json's cycle check
        # moves no byte
        written, write = [], cli.write_report

        def recorded(report, out_path):
            written.append((report, write(report, out_path)))
            return written[-1][1]
        monkeypatch.setattr(cli, "write_report", recorded)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        run([command, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        (report, text), = written
        assert text == json.dumps(report, sort_keys=True, separators=(",", ":"),
                                  default=cli._encode, check_circular=True) + "\n"


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg.params.n == 3
        assert cfg.params.eta == 0.6 + 0.35j
        assert len(cfg.params.xi) == 3
        assert cfg.tolerances == DEFAULT_TOLERANCES

    def test_one_dense_cap_in_every_layer(self, tmp_path, capsys):
        # config, monodromy and eigensolve refuse one past N = 8 with their own texts
        assert (MAX_SITES, MAX_EIG_DIM) == (8, 256)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 9}))
        assert run(["spectrum", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: n must lie in 1..8, got 9\n"
        with pytest.raises(DimensionError, match=r"^chain length 9 exceeds dense cap 8$"):
            lattice.monodromy_entries(make_params(9), 0.1)
        with pytest.raises(DimensionError,
                           match=r"^matrix dimension 512 exceeds dense cap 256$"):
            eig_dense(np.eye(512))

    def test_seed_override_changes_nodes(self):
        a = load_config(None, seed_override=1)
        b = load_config(None, seed_override=2)
        assert a.params.xi != b.params.xi

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
        pytest.param({"n": "3"}, None, id="n-string"),
        pytest.param({"n": 2, "seed": "7"}, None, id="seed-string"),
        pytest.param({"n": 2, "sites": ["1"]}, None, id="sites-string"),
        pytest.param({"n": 2, "kappa": ["1", "0"]}, None, id="kappa-string"),
        pytest.param({"n": 2, "tolerances": {"tq_residual": "1e-7"}}, None,
                     id="tolerance-string"),
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
        # an integral float is read as its integer and a numeric string is
        # refused, as for "n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1.0, "n": 2.0}))
        assert load_config(cfg).params.n == 2
        for field in ("schema", "n"):
            cfg.write_text(json.dumps({field: "1"}))
            with pytest.raises(ParameterError, match=f"field '{field}' must be int"):
                load_config(cfg)

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
                            lambda *args: tuple(v * (1 + 1e-7) for v in dress(*args)))
        out = tmp_path / "v.json"
        assert run(["validate", "--out", str(out), *tol_args]) == code
        check = read(out)["checks"]["inverse_problem"]
        assert 1e-8 < check["residual"] < 1e-6
        assert check["pass"] is (code == 0)

    def test_node_factors_built_once(self, tmp_path, monkeypatch):
        # the 8 n dressed operators of one run share their node factors: the
        # monodromy at each xi_m - eta is built once, the basis shares B and
        # C of the blocks at xi_m, no matrix is decomposed, inverted or solved
        # (the inverse prefix products come from the fusion identity), and
        # each call of the dressing and each target embedding serves both
        # variants (the spectrum's own work not counted)
        builds = Counter()
        calls = Counter()
        made = {}
        in_spectrum = []
        solve_spectrum = cli.solve_spectrum

        def outside_spectrum(module, name, shapes=False):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                if not in_spectrum:
                    calls[name, args[0].shape if shapes else None] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        def uncounted_solve(*args, **kwargs):
            in_spectrum.append(True)
            try:
                return solve_spectrum(*args, **kwargs)
            finally:
                in_spectrum.pop()

        def kept(name):
            cls = getattr(cli, name)

            def build(*args):
                made[name] = cls(*args)
                return made[name]
            monkeypatch.setattr(cli, name, build)

        count_builds(monkeypatch, builds, active=lambda: not in_spectrum)
        outside_spectrum(np.linalg, "svd", shapes=True)
        outside_spectrum(np.linalg, "solve")
        outside_spectrum(np.linalg, "inv")
        outside_spectrum(cli, "local_op")
        outside_spectrum(cli, "dress_local_operator")
        monkeypatch.setattr(cli, "solve_spectrum", uncounted_solve)
        kept("SovBasis")
        kept("NodeFactors")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        params = load_config(cfg).params
        n = params.n
        assert run(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.json")]) == 0
        nodes = [x - shift for x in params.xi for shift in (0, params.eta)]
        assert [builds[x] for x in nodes] == [1] * len(nodes)
        assert calls == {("local_op", None): 4 * n, ("dress_local_operator", None): 4 * n}
        assert all(made["NodeFactors"].at_xi[m].b is made["SovBasis"].at_xi[m].b
                   and made["NodeFactors"].at_xi[m].c is made["SovBasis"].at_xi[m].c
                   for m in range(n))

    # gate -> (cli name, block of its result, tolerance key); every result of
    # the function (R, or each dressed operator) or, at the first point the
    # command builds a monodromy (lam), one block of it
    LATTICE_DEFECTS = {
        "yang_baxter": ("r_matrix", None, "lattice_residual"),
        "twist_commutation": ("r_matrix", None, "lattice_residual"),
        "rtt": ("monodromy_entries", "c", "lattice_residual"),
        "quantum_determinant": ("monodromy_entries", "a", "lattice_residual"),
        "transfer_commutation": ("monodromy_entries", "b", "lattice_residual"),
        "inverse_problem": ("dress_local_operator", None, "inverse_problem"),
    }

    @pytest.mark.parametrize("gate", sorted(LATTICE_DEFECTS))
    def test_lattice_gates_catch_a_perturbed_entry(self, tmp_path, monkeypatch, gate):
        # entry (0, 0) moved by 1e-6 of its matrix's norm: the gate reads the
        # defect to within a factor 10 and fails at its default tolerance
        # (1e-10, and 1e-8 for inverse_problem), on three chains; seeds 1-10
        # read ratios of 0.2 to 2.4, of 0.47 to 0.93 for rtt and of 1.00 for
        # inverse_problem
        defect = 1e-6
        name, block, tolerance = self.LATTICE_DEFECTS[gate]
        made, built = getattr(cli, name), []

        def moved(m):
            m = m.copy()
            m[0, 0] += defect * np.linalg.norm(m)
            return m

        def perturbed(*args, **kwargs):
            out = made(*args, **kwargs)
            if block is None:  # R, or both variants of a dressed operator
                return tuple(map(moved, out)) if isinstance(out, tuple) else moved(out)
            if not built:
                built.append(out)
                return dataclasses.replace(out, **{block: moved(getattr(out, block))})
            return out

        monkeypatch.setattr(cli, name, perturbed)
        out = tmp_path / "v.json"
        for seed in (1, 2, 3):
            built.clear()
            assert run(["validate", "--seed", str(seed), "--out", str(out)]) == 1
            check = read(out)["checks"][gate]
            assert defect / 10 < check["residual"] < 10 * defect
            assert check["tolerance"] == DEFAULT_TOLERANCES[tolerance]
            assert check["pass"] is False

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

    @pytest.mark.parametrize("check, formula", [
        ("identity_root_relabel", "sp_slavnov"),
        ("identity_cauchy_closed_form", "coth_cauchy_closed_form"),
    ])
    def test_identity_checks_catch_a_scaled_value(self, tmp_path, monkeypatch, check, formula):
        # the Slavnov scalar product, or the closed form of the coth Cauchy
        # determinant, scaled by 1 + 1e-6: the identity check that compares
        # it with its other form reads the defect to within 2x and fails at
        # its default tolerance
        defect = 1e-6
        real = getattr(obs, formula)
        monkeypatch.setattr(obs, formula, lambda *args: real(*args) * (1 + defect))
        out = tmp_path / "v.json"
        assert run(["validate", "--out", str(out)]) == 1
        result = read(out)["checks"][check]
        assert result["tolerance"] == DEFAULT_TOLERANCES["identity_bench"]
        assert result["pass"] is False
        assert defect / 2 < result["residual"] < 2 * defect, result["residual"]

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

        def tracked(self, *args):
            made.append(weakref.ref(self))
            init(self, *args)

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
        # besides these: the three certification probes
        assert sorted(builds.values()) == [1] * (len(points) + 3)

    def test_spectrum_builds_each_point_once(self, tmp_path, monkeypatch):
        builds = Counter()
        count_builds(monkeypatch, builds)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        params = load_config(cfg).params
        assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s.json")]) == 0
        assert [builds[x] for x in params.xi] == [1] * params.n
        # besides these: the three certification probes; the oracle at kappa
        # and the full eigensolve at kappa' read the node blocks alone
        assert sorted(builds.values()) == [1] * (params.n + 3)


class TestColdStart:
    """A fresh interpreter compiles ``observables.py`` only for the commands
    that evaluate its formulas."""

    SRC = Path(__file__).resolve().parents[1] / "src"
    CODE = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import sovxxz.cli\n"
            "if sys.argv[2:]:\n"
            "    sovxxz.cli.main(sys.argv[2:])\n"
            "print('sovxxz.observables' in sys.modules)\n")

    @pytest.mark.parametrize("command, loaded", [
        (None, False), ("spectrum", False), ("observables", True), ("validate", True)])
    def test_observables_is_loaded_only_where_it_runs(self, tmp_path, command, loaded):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        args = [] if command is None else \
            [command, "--config", str(cfg), "--out", str(tmp_path / "r.json")]
        done = subprocess.run([sys.executable, "-c", self.CODE, str(self.SRC), *args],
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.splitlines() == [str(loaded)]
        if command is not None:
            assert read(tmp_path / "r.json")["command"] == command


    @pytest.mark.parametrize("command", ["spectrum", "validate", "observables"])
    def test_no_command_imports_numpy_ma(self, tmp_path, command):
        # np.median's NaN check imports numpy.ma, about 9 ms of a cold run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        code = self.CODE.replace("'sovxxz.observables'", "'numpy.ma'")
        done = subprocess.run([sys.executable, "-c", code, str(self.SRC), command, "--config",
                               str(cfg), "--out", str(tmp_path / "r.json")],
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.splitlines() == ["False"]
        assert read(tmp_path / "r.json")["command"] == command


def test_fresh_processes_at_one_blas_thread_write_the_same_bytes(tmp_path):
    # reports are byte-identical for a fixed seed, machine and BLAS thread
    # count; test_10_determinism runs its two runs in one process
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5}))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    reports = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        subprocess.run([sys.executable, "-c", TestColdStart.CODE, str(TestColdStart.SRC),
                        "validate", "--config", str(cfg), "--seed", "3", "--out", str(out)],
                       capture_output=True, text=True, env=env, timeout=120, check=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["n"] == 5


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_qhat_roots_are_the_partner_records_roots(self, tmp_path, n):
        # one representation of the i*pi partner: record j's qhat_roots are
        # the q_roots of record 2^N-1-j, bit for bit (signed zeros included),
        # and the residuals a record shares with its partner read the same
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": n}))
        out = tmp_path / "s.json"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        records = read(out)["records"]
        assert len(records) == 2**n
        for rec, partner in zip(records, records[::-1]):
            assert json.dumps(rec["qhat_roots"]) == json.dumps(partner["q_roots"])
            for key in ("wronskian_residual", "wronskian_sign", "bethe_residual"):
                assert json.dumps(rec[key]) == json.dumps(partner[key]), key

    def test_n3_bethe_residuals(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["spectrum", "--out", str(out)]) == 0
        rep = read(out)
        assert len(rep["records"]) == 8
        assert all(r["bethe_residual"] < 1e-9 for r in rep["records"])

    def test_checks_read_the_full_eigensolve(self, tmp_path, monkeypatch):
        # the oracle's spectrum is closed under negation by construction, so
        # negation_closure reads the kappa' reference alone: shifted off
        # closure, it fails, while the oracle's records stay certified
        full = lattice.transfer_eigenvalues
        calls = []

        def shifted(t, kappa, *witness):
            calls.append(kappa)
            vals = full(t, kappa, *witness)
            return vals + 0.5 * np.max(np.abs(vals))

        monkeypatch.setattr(cli, "transfer_eigenvalues", shifted)
        out = tmp_path / "s.json"
        assert run(["spectrum", "--out", str(out)]) == 1
        rep = read(out)
        assert calls == [load_config(None).kappa_prime]
        assert not rep["checks"]["negation_closure"]["pass"]
        assert rep["checks"]["negation_closure"]["residual"] > 0.5
        assert not rep["checks"]["isospectral"]["pass"]
        assert rep["checks"]["isospectral"]["residual"] > 0.1
        assert all(r["certified"] for r in rep["records"])

    def test_a_spectrum_refusal_wins_over_the_reference(self, tmp_path, monkeypatch, capsys):
        # both would fail: the spectrum's refusal is the one reported, and the
        # reference is never called
        calls = []

        def refused(*args, **kwargs):
            raise CertificationError("record 0: spectrum refused")

        def degenerate(t, kappa, *witness):
            calls.append(kappa)
            raise DegenerateSpectrumError("reference refused")

        monkeypatch.setattr(cli, "solve_spectrum", refused)
        monkeypatch.setattr(cli, "transfer_eigenvalues", degenerate)
        assert run(["spectrum", "--out", str(tmp_path / "s.json")]) == 2
        assert calls == []
        assert capsys.readouterr().err == "error: record 0: spectrum refused\n"
        assert not (tmp_path / "s.json").exists()

    def test_a_reference_refusal_is_raised_in_the_command(self, tmp_path, monkeypatch, capsys):
        def degenerate(t, kappa, *witness):
            raise DegenerateSpectrumError("reference refused")

        monkeypatch.setattr(cli, "transfer_eigenvalues", degenerate)
        assert run(["spectrum", "--out", str(tmp_path / "s.json")]) == 2
        assert capsys.readouterr().err == "error: reference refused\n"
        assert not (tmp_path / "s.json").exists()

    def test_reference_runs_once_on_the_main_thread_after_the_spectrum(self, tmp_path,
                                                                       monkeypatch):
        # one eigensolve at kappa' of the blocks at xi_1, on the calling
        # thread and after solve_spectrum has returned, witnessed by the
        # spectrum's own eigenvectors at kappa, bit-equal to a direct call
        full, solve = lattice.transfer_eigenvalues, cli.solve_spectrum
        events = []

        def solved(basis, *args, **kwargs):
            spectrum = solve(basis, *args, **kwargs)
            events.append(("spectrum", basis, spectrum))
            return spectrum

        def recorded(t, kappa, *witness):
            vals = full(t, kappa, *witness)
            events.append(("reference", threading.current_thread(), t, kappa, witness, vals))
            return vals

        monkeypatch.setattr(cli, "solve_spectrum", solved)
        monkeypatch.setattr(cli, "transfer_eigenvalues", recorded)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6}))
        for seed in (1, 2, 3):
            events.clear()
            assert run(["spectrum", "--config", str(cfg), "--seed", str(seed),
                        "--out", str(tmp_path / "s.json")]) == 0
            assert [event[0] for event in events] == ["spectrum", "reference"]
            (_, basis, spec), (_, thread, t, kappa, witness, vals) = events
            assert thread is threading.main_thread()
            assert t is basis.at_xi[0]
            assert kappa == load_config(cfg, seed_override=seed).kappa_prime
            vectors, witness_tau, witness_kappa = witness
            assert vectors is spec.vectors and not vectors.flags.writeable
            assert np.array_equal(witness_tau, spec.table.tau[:, 0])
            assert witness_kappa == basis.params.kappa
            assert np.array_equal(vals.view(np.uint64), full(t, kappa, *witness).view(np.uint64))

    def test_a_moved_reference_value_exits_2_by_its_index(self, tmp_path, monkeypatch, capsys):
        # the witness gate reads each eigenvalue of the eigvals reference: one
        # moved by 1e-6 of the spectral radius stops the command, named
        moved = move_one_eigenvalue(monkeypatch, 8)
        assert run(["spectrum", "--out", str(tmp_path / "s.json")]) == 2
        assert len(moved) == 1
        assert re.fullmatch(rf"error: eigenpair {moved[0]} residual \S+ exceeds 1\.0e-09 "
                            r"\* \|\|M\|\| \* \|\|v\|\|\n", capsys.readouterr().err)
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("kappa_prime", [0.05, 20.0])
    @pytest.mark.parametrize("n", [7, 8])
    def test_extreme_twist_ratios_pass(self, tmp_path, n, kappa_prime):
        # the oracle's eigenvectors at kappa = 1 witness the reference at
        # kappa' through D = diag((kappa / kappa')^popcount), whose entries
        # span 20^N here
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": n, "kappa_prime": [kappa_prime, 0.0]}))
        assert run(["spectrum", "--config", str(cfg), "--seed", "1",
                    "--out", str(tmp_path / "s.json")]) == 0

    def test_one_op_makes_one_half_size_eig_and_one_full_eigvals(self, tmp_path, monkeypatch):
        # the oracle's eig of X_1 Y_1 and the reference's eigvals of
        # T_{kappa'}(xi_1); no full eigendecomposition
        calls = Counter()
        for name in ("eig", "eigvals"):
            def counted(a, name=name, solve=getattr(np.linalg, name)):
                calls[name, np.shape(a)] += 1
                return solve(a)
            monkeypatch.setattr(np.linalg, name, counted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6}))
        assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s.json")]) == 0
        assert calls["eig", (32, 32)] == 1
        assert calls["eigvals", (64, 64)] == 1
        assert calls["eig", (64, 64)] == 0

    @pytest.mark.parametrize("n", [3, 6])
    def test_isospectral_trips_on_its_own(self, tmp_path, monkeypatch, n):
        # a reference scaled by 1 + 1e-6 stays closed under negation, so only
        # isospectral reads the defect, to within a factor 10
        full = lattice.transfer_eigenvalues

        def scaled(t, kappa, *witness):
            return full(t, kappa, *witness) * (1 + 1e-6)

        monkeypatch.setattr(cli, "transfer_eigenvalues", scaled)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": n}))
        out = tmp_path / "s.json"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 1
        rep = read(out)
        assert rep["checks"]["negation_closure"]["pass"]
        assert not rep["checks"]["isospectral"]["pass"]
        assert 1e-7 <= rep["checks"]["isospectral"]["residual"] <= 1e-5
        assert all(r["certified"] for r in rep["records"])

    @staticmethod
    def defective_matrix(monkeypatch, tmp_path, n, defect):
        """Write the config of an N = ``n`` chain and make its twisted
        transfer matrix at kappa', the reference's, come out as
        ``defect(M)``; the matrix at every other twist is left as it is."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": n}))
        kappa_prime, transfer = load_config(cfg).kappa_prime, lattice.FlipBlocks.transfer

        def defective(self, kappa):
            m = transfer(self, kappa)
            return defect(m) if kappa == kappa_prime else m

        monkeypatch.setattr(lattice.FlipBlocks, "transfer", defective)
        return cfg

    @pytest.mark.parametrize("n", [3, 6])
    def test_a_scaled_matrix_passes_the_gate_and_isospectral_reads_it(self, tmp_path,
                                                                      monkeypatch, n):
        # T_{kappa'} scaled by 1 + 1e-6 keeps its eigenvectors, so the
        # oracle's witnesses pass it, and isospectral reads the defect at the
        # tolerance it is given
        cfg = self.defective_matrix(monkeypatch, tmp_path, n, lambda m: m * (1 + 1e-6))
        out = tmp_path / "s.json"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 1
        rep = read(out)
        assert rep["checks"]["negation_closure"]["pass"]
        assert 1e-7 <= rep["checks"]["isospectral"]["residual"] <= 1e-5
        assert run(["spectrum", "--config", str(cfg), "--out", str(out),
                    "--tol", "isospectral=1e-4"]) == 0

    @pytest.mark.parametrize("n", [3, 6])
    def test_a_moved_matrix_entry_stops_the_run_however_loose_the_checks(
            self, tmp_path, monkeypatch, capsys, n):
        # one entry of T_{kappa'} moved by 1e-6 ||M||_F moves its
        # eigenvectors off the oracle's: the witness gate, which reads how far
        # each value and witness are from an eigenpair of the matrix, stops
        # the run before either check, whatever their tolerances
        def moved(m):
            m = m.copy()
            m[0, 0] += 1e-6 * np.linalg.norm(m)
            return m

        cfg = self.defective_matrix(monkeypatch, tmp_path, n, moved)
        out = tmp_path / "s.json"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out),
                    "--tol", "isospectral=1e-2", "--tol", "negation_closure=1e-2"]) == 2
        assert re.fullmatch(r"error: eigenpair \d+ residual \S+ exceeds 1\.0e-09 "
                            r"\* \|\|M\|\| \* \|\|v\|\|\n", capsys.readouterr().err)
        assert not out.exists()

    def test_negation_closure_is_not_vacuous(self, tmp_path):
        out = tmp_path / "s.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6}))
        for seed in (1, 2, 3):
            assert run(["spectrum", "--config", str(cfg), "--seed", str(seed),
                        "--out", str(out)]) == 0
            assert read(out)["checks"]["negation_closure"]["residual"] > 0

    def test_byte_identical_reports(self, tmp_path):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        assert run(["spectrum", "--out", str(out1), "--seed", "11"]) == 0
        assert run(["spectrum", "--out", str(out2), "--seed", "11"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def outcome_module():
    """``perfbench/outcome.py``, the benchmark's op classifier."""
    if "perfbench_outcome" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "outcome.py"
        spec = importlib.util.spec_from_file_location("perfbench_outcome", path)
        # registered first: its dataclass looks its own module up while it is built
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_outcome"]


class TestObservablesCommand:
    def test_representation_selector(self, tmp_path, monkeypatch):
        # only the selected representations and operator families are
        # evaluated; sp_tau gives both tau forms in one call, and each
        # form-factor call both forms of its operator at every site
        calls = Counter()
        for name in ("sp_direct", "sp_izergin", "sp_slavnov", "sp_tau", "ff_sigma_z",
                     "ff_sigma_pm"):
            def counted(*args, _inner=getattr(obs, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(obs, name, counted)
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.json"
        for operators, form_factors in ((["z", "-"], {"ff_sigma_z": 1, "ff_sigma_pm": 1}),
                                        (["z"], {"ff_sigma_z": 1})):
            calls.clear()
            cfg.write_text(json.dumps({
                "n": 2,
                "representations": ["direct", "tau_izergin"],
                "operators": operators,
            }))
            assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 0
            assert calls == {"sp_direct": 1, "sp_tau": 1, **form_factors}
            assert read(out)["summary"]["scalar_products"]["pass"]

    def test_entries_keep_the_oracle_value_and_deviations(self, tmp_path):
        # no formula value is written: each entry holds the dense oracle value
        # and the deviation that summarizes the formulas against it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        out = tmp_path / "o.json"
        assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 1
        rep = read(out)
        assert rep["schema"] == 2
        assert len(rep["scalar_products"]) == 16 and len(rep["form_factors"]) == 32
        for entry in rep["scalar_products"].values():
            assert set(entry) == {"dense", "max_pairwise_deviation"}
        for entry in rep["form_factors"].values():
            assert set(entry) == {"z", "+", "-"}
            assert set(entry["z"]) == set(entry["-"]) == {"brute", "deviation"}
            assert set(entry["+"]) == {"brute", "pm_equality_deviation"}

    @pytest.mark.parametrize("config", [
        {"n": 2},
        {"n": 2, "sites": [2], "operators": ["+", "-"]},
        {"n": 2, "sites": [2, 1], "operators": ["+"]},
        {"n": 3, "sites": [3, 1], "operators": ["-", "z"], "kappa_prime": [1.0, 0.0]},
    ])
    def test_deviation_leaves_are_the_margin_population(self, tmp_path, config):
        # P * Q * |sites| * |operators & {z, -}| "deviation" leaves, which with
        # one max_pairwise_deviation per pair and one residual per other gated
        # check are the margins the benchmark's classifier counts
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o.json"
        code = run(["observables", "--config", str(cfg), "--out", str(out)])
        rep, loaded = read(out), load_config(cfg)
        pairs = 4 ** loaded.params.n
        compared = len({"z", "-"} & set(loaded.operators))
        leaves = sum("deviation" in entry[op] for entry in rep["form_factors"].values()
                     for op in entry)
        assert leaves == pairs * len(loaded.sites) * compared
        judged = outcome_module().classify(code, rep, DEFAULT_TOLERANCES)
        assert judged.ok
        assert len(judged.margins) == pairs + leaves + ("orthogonality" in rep["summary"])

    @pytest.mark.parametrize("config", [
        {"n": 3},
        {"n": 2, "sites": [2, 1], "operators": ["-", "+", "z"], "kappa_prime": [1.0, 0.0]},
    ])
    def test_worst_at_names_the_leaf_of_the_residual(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o.json"
        assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 1
        rep = read(out)
        summary = rep["summary"]
        assert set(summary) == {"scalar_products", "form_factors", "pm_equality"} | (
            {"orthogonality"} if "kappa_prime" in config else set())
        leaf = {"scalar_products": "max_pairwise_deviation", "orthogonality": "overlap_over_norms",
                "form_factors": "deviation", "pm_equality": "pm_equality_deviation"}
        for name, check in summary.items():
            section = "form_factors" if name == "pm_equality" else name
            where = check["worst_at"]
            assert re.fullmatch(r"P\d+_Q\d+(_site\d+\.[z+-])?", where)
            entry = rep[section]
            for key in where.split("."):
                entry = entry[key]
            assert entry[leaf[name]] == check["residual"]
            held = [e[leaf[name]] for e in rep[section].values()] if section != "form_factors" \
                else [e[op][leaf[name]] for e in rep[section].values() for op in e
                      if leaf[name] in e[op]]
            assert check["residual"] == max(held)

    def test_worst_at_takes_the_first_tie_in_row_major_order(self):
        deviation = np.zeros((2, 3, 2))
        deviation[1, 0, 1] = deviation[0, 2, 0] = deviation[1, 2, 1] = 0.5
        check = cli._worst_check(deviation, 1.0, lambda i: np.unravel_index(i, deviation.shape))
        assert check == {"residual": 0.5, "tolerance": 1.0, "pass": True, "worst_at": (0, 2, 0)}

    @staticmethod
    def norm_products(pair, ket_twist):
        """||bra_P|| ||ket_Q|| of every pair of ``pair``, the bras at the
        chain's twist and the kets at ``ket_twist``, as the command scales
        its deviations."""
        basis = sov.SovBasis(pair.params)
        bra, ket = (np.linalg.norm(sov.separate_state(basis, table, twist, side).embedded, axis=1)
                    for table, twist, side in zip(pair.tables, (pair.params.kappa, ket_twist),
                                                  ("bra", "ket")))
        return np.outer(bra, ket)

    @pytest.mark.parametrize("check, formula, entry, worst_at", [
        ("scalar_products", "sp_izergin", (3, 5), "P3_Q5"),
        ("form_factors", "ff_sigma_z", (1, 2, 6, 1), "P2_Q6_site2.z"),
    ])
    def test_summary_checks_catch_a_moved_entry(self, tmp_path, monkeypatch, check, formula,
                                                entry, worst_at):
        # one entry of one formula, a (P, Q) scalar product or a (form, P, Q,
        # site) form factor, moved by 1e-5 times ||bra_P|| ||ket_Q||: the
        # check fails at its default tolerance, reads the defect to within 2x
        # and names that entry
        defect = 1e-5
        real = getattr(obs, formula)
        pair_at = entry[-3:-1] if check == "form_factors" else entry
        # the scalar products take their kets at kappa', the form factors at kappa
        ket_twist = load_config(None).kappa_prime if check == "scalar_products" else None

        def moved(pair, *args):
            values = np.array(real(pair, *args))
            scale = self.norm_products(pair, ket_twist or pair.params.kappa)
            values[entry] += defect * scale[pair_at]
            return values

        monkeypatch.setattr(obs, formula, moved)
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.json"
        cfg.write_text(json.dumps({"n": 3}))
        assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 1
        summary = read(out)["summary"][check]
        key = "cross_representation" if check == "scalar_products" else "oracle_comparison"
        assert not summary["pass"] and summary["tolerance"] == DEFAULT_TOLERANCES[key]
        assert defect / 2 < summary["residual"] < 2 * defect, summary["residual"]
        assert summary["worst_at"] == worst_at

    def test_orthogonality_catches_an_injected_overlap(self, tmp_path, monkeypatch):
        # at kappa' = kappa the ket of Q5 takes on the multiple of the ket of
        # P2 that gives the pair (P2, Q5) an overlap of 1e-5 ||bra_P2||
        # ||ket_Q5||; every other bra stays orthogonal to it, so the check
        # fails at its default tolerance, reads the overlap to within 2x and
        # names that pair
        defect, p, q = 1e-5, 2, 5
        real, bras = cli.separate_state, []

        def overlapping(basis, table, kappa, side):
            state = real(basis, table, kappa, side)
            if side == "bra":  # the command builds its bras first
                bras.append(state.embedded)
                return state
            kets, bra = state.embedded.copy(), bras[-1][p]
            kets[q] += defect * np.linalg.norm(bra) * np.linalg.norm(kets[q]) \
                / (bra @ kets[p]) * kets[p]
            return dataclasses.replace(state, embedded=kets)

        monkeypatch.setattr(cli, "separate_state", overlapping)
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.json"
        cfg.write_text(json.dumps({"n": 3, "kappa_prime": [1.0, 0.0]}))
        assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 1
        summary = read(out)["summary"]["orthogonality"]
        assert not summary["pass"]
        assert summary["tolerance"] == DEFAULT_TOLERANCES["orthogonality"]
        assert defect / 2 < summary["residual"] < 2 * defect, summary["residual"]
        assert summary["worst_at"] == f"P{p}_Q{q}"

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

    def test_cap_refuses_before_any_work(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 7}))
        out = tmp_path / "o.json"
        assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: observables sweep capped at n <= 6 (2^n x 2^n pairs); got n = 7\n")
        assert not out.exists()

    def test_site_values_do_not_depend_on_the_other_sites(self, tmp_path):
        reports = []
        for sites in ([2], [3, 1, 2]):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n": 3, "sites": sites}))
            out = tmp_path / f"o{len(sites)}.json"
            assert run(["observables", "--config", str(cfg), "--out", str(out)]) == 1
            reports.append(read(out))
        one, three = reports
        site2 = {key: entry for key, entry in three["form_factors"].items()
                 if key.endswith("_site2")}
        assert site2 == one["form_factors"] and len(site2) == 64
        assert three["scalar_products"] == one["scalar_products"]

    def test_root_near_a_shifted_node_is_not_refused(self, tmp_path):
        # seed 100023 has a root 0.017 from some xi_k - eta: inside delta_min,
        # far outside the guard, and every gated check holds there
        out = tmp_path / "o.json"
        assert run(["observables", "--seed", "100023", "--out", str(out)]) == 1
        summary = read(out)["summary"]
        assert set(summary) == {"scalar_products", "form_factors", "pm_equality"}
        assert summary["scalar_products"]["pass"] and summary["form_factors"]["pass"]
        assert not summary["pm_equality"]["pass"]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_is_paused_for_the_report_and_left_as_found(self, tmp_path, monkeypatch,
                                                          capsys, enabled):
        # the report is built and written with the cyclic GC paused; the GC
        # is then left as the command found it, also when the report cannot
        # be written
        during, write = [], cli.write_report

        def recorded(report, out_path):
            during.append(gc.isenabled())
            return write(report, out_path)
        monkeypatch.setattr(cli, "write_report", recorded)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert run(["observables", "--config", str(cfg),
                        "--out", str(tmp_path / "o.json")]) == 1
            assert gc.isenabled() is enabled
            unwritable = tmp_path / "missing" / "o.json"
            assert run(["observables", "--config", str(cfg), "--out", str(unwritable)]) == 2
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert during == [False, False]
        assert capsys.readouterr().err.startswith(f"error: cannot write report {unwritable}")

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "operators": ["z", "-"]}))
        out1 = tmp_path / "o1.json"
        out2 = tmp_path / "o2.json"
        assert run(["observables", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run(["observables", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pair_and_probe_work_built_once(self, tmp_path, monkeypatch):
        # the grid of all (P, Q) pairs builds its alpha-free Slavnov halves
        # once, and its Slavnov and eigenvalue-labelled matrices once per
        # formula (the scalar product and the two form factors) for all
        # pairs and sites, the
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
        assert calls["solve_spectrum"] == 1
        assert calls["slavnov_halves"] == 1
        assert calls["slavnov_matrix"] == calls["tau_matrix"] == 3
        assert 0 < calls["local_op"] <= 3 * n
        assert 0 < calls["transfer_k"] <= 3 * calls["solve_spectrum"]
