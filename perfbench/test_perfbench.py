"""Tests of the benchmark's own op classifier, tracer and metric list.

    python3 -m pytest perfbench
"""

import math
import sys
import time
import types

import pytest

from outcome import EPS, classify
from run import declared_units, per_layer_units
from spans import Tracer

TOLS = {"bethe_residual": 1e-9, "tq_residual": 1e-7, "discrete_char": 1e-8,
        "eigenstate_residual": 1e-8}


def check(residual, tolerance, passed=None):
    return {"residual": residual, "tolerance": tolerance,
            "pass": residual <= tolerance if passed is None else passed}


def record(certified=True, bethe=1e-12):
    return {"bethe_residual": bethe, "tq_residual": 1e-12, "discrete_char_residual": 1e-12,
            "eigenstate_residual": 1e-12, "wronskian_residual": 5.0, "certified": certified}


def observables_report(pm_pass=False, ff_pass=True):
    summary = {"scalar_products": check(1e-11, 1e-7),
               "form_factors": check(1e-10, 1e-7, ff_pass),
               "pm_equality": check(0.9, 1e-8)}
    every = all(c["pass"] for c in summary.values())
    if pm_pass:
        summary["pm_equality"] = check(1e-12, 1e-8)
        every = all(c["pass"] for c in summary.values())
    return {"command": "observables",
            "scalar_products": {"P0_Q0": {"max_pairwise_deviation": 1e-11},
                                "P0_Q1": {"max_pairwise_deviation": 1e-13}},
            "form_factors": {"P0_Q0_site1": {
                "z": {"deviation": 1e-10}, "-": {"deviation": 0.0},
                "+": {"pm_equality_deviation": 0.9}}},
            "summary": summary, "pass": every}


class TestClassify:
    def test_pm_equality_alone_does_not_fail_an_op(self):
        out = classify(1, observables_report(), TOLS)
        assert out.ok and out.consistent
        assert out.pm_equality == {"residual": 0.9, "tolerance": 1e-8, "pass": False}

    def test_pm_equality_never_enters_the_margin(self):
        margins = classify(1, observables_report(), TOLS).margins
        # the section entries gated by the summary checks, not pm_equality
        assert sorted(margins) == pytest.approx(
            sorted([4.0, 6.0, 3.0, math.log10(1e-7 / EPS)]))

    def test_failing_check_fails_the_op_despite_exit_1(self):
        out = classify(1, observables_report(ff_pass=False), TOLS)
        assert not out.ok and out.consistent
        assert out.failures == ["summary.form_factors"]
        assert out.margins == []

    def test_exit_code_disagreeing_with_flags_is_inconsistent(self):
        assert not classify(0, observables_report(), TOLS).consistent
        assert classify(0, observables_report(pm_pass=True), TOLS).consistent
        assert not classify(1, observables_report(pm_pass=True), TOLS).consistent

    def test_uncertified_record_fails(self):
        report = {"records": [record(), record(certified=False)],
                  "checks": {"isospectral": check(1e-13, 1e-9)}, "pass": False}
        out = classify(1, report, TOLS)
        assert not out.ok and out.consistent
        assert out.failures == ["records[1]"]

    def test_record_margins_use_the_certifying_tolerances(self):
        report = {"records": [record(bethe=1e-10)],
                  "checks": {"isospectral": check(1e-13, 1e-9)}, "pass": True}
        out = classify(0, report, TOLS)
        assert out.ok
        # bethe, tq, discrete_char, eigenstate, isospectral; wronskian is ungated
        assert sorted(out.margins) == pytest.approx([1.0, 4.0, 4.0, 4.0, 5.0])

    def test_exit_2_fails_and_is_consistent(self):
        out = classify(2, None, TOLS)
        assert not out.ok and out.consistent

    def test_an_escaping_exception_is_a_crash(self):
        out = classify(None, None, TOLS, error=ValueError("boom"))
        assert not out.ok and not out.consistent and "ValueError" in out.reason

    def test_missing_report_is_inconsistent(self):
        out = classify(0, None, TOLS)
        assert not out.ok and not out.consistent


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.lattice`` defines two traced names; ``fakepkg.cli`` imports one."""
    pkg = types.ModuleType("fakepkg")
    lattice = types.ModuleType("fakepkg.lattice")

    def local_op():
        time.sleep(0.002)
        return "op"

    def transfer_k():
        time.sleep(0.002)
        return lattice.local_op()

    def spectrum_oracle():
        raise ValueError("degenerate")

    lattice.local_op = local_op
    lattice.transfer_k = transfer_k
    lattice.spectrum_oracle = spectrum_oracle
    cli = types.ModuleType("fakepkg.cli")
    cli.local_op = local_op  # as ``from .lattice import local_op`` leaves it
    for mod in (pkg, lattice, cli):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return lattice, cli, local_op


class TestTracer:
    def test_wraps_each_import_site_and_restores(self, fake_package):
        lattice, cli, original = fake_package
        tracer = Tracer(package="fakepkg")
        tracer.install()
        try:
            assert cli.local_op is not original and lattice.local_op is cli.local_op
            tracer.run_op(1, lambda: (cli.local_op(), lattice.transfer_k()))
        finally:
            tracer.uninstall()
        assert cli.local_op is original and lattice.local_op is original
        assert sorted(tracer.sites["lattice.local_op"]) == [
            "fakepkg.cli.local_op", "fakepkg.lattice.local_op"]
        stats = tracer.op_stats(1)
        assert stats["lattice.local_op"]["calls"] == 2
        outer = stats["lattice.transfer_k"]
        assert 0 < outer["self_s"] < outer["busy_s"]
        assert stats["op"]["calls"] == 1

    def test_missing_names_are_reported_absent(self, fake_package):
        tracer = Tracer(package="fakepkg")
        tracer.install()
        tracer.uninstall()
        assert "observables.ff_sigma_z" in tracer.absent
        assert "model.TrigInterpolation" in tracer.absent
        assert "lattice.local_op" not in tracer.absent

    def test_spans_record_their_parent_and_op(self, fake_package):
        lattice, _, _ = fake_package
        tracer = Tracer(package="fakepkg")
        tracer.install()
        try:
            tracer.run_op(3, lattice.transfer_k)
        finally:
            tracer.uninstall()
        by_name = {s[3]: s for s in tracer.spans}
        assert by_name["lattice.local_op"][1] == by_name["lattice.transfer_k"][0]
        assert by_name["lattice.transfer_k"][1] == by_name["op"][0]
        assert all(s[2] == 3 and not s[6] for s in tracer.spans)

    def test_a_raising_call_is_recorded_and_propagates(self, fake_package):
        lattice, _, _ = fake_package
        tracer = Tracer(package="fakepkg")
        tracer.install()
        try:
            with pytest.raises(ValueError):
                tracer.run_op(4, lattice.spectrum_oracle)
        finally:
            tracer.uninstall()
        stats = tracer.op_stats(4)
        assert stats["lattice.spectrum_oracle"] == pytest.approx(
            {"calls": 1, "raised": 1, "busy_s": stats["lattice.spectrum_oracle"]["busy_s"],
             "self_s": stats["lattice.spectrum_oracle"]["self_s"]})
        assert stats["op"]["raised"] == 1


def test_per_layer_metrics_match_benchmark_json():
    assert per_layer_units() == declared_units("per_layer")
