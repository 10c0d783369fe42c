"""Classify one CLI op as ok or failed from its exit code and its report.

The exit code alone is not enough: ``observables`` exits 1 by design because
the ``pm_equality`` check fails (README, "Known caveat").  So an op is judged
by the per-check ``pass`` flags and the per-record ``certified`` flags in its
report.  ``pm_equality`` is reported on its own and never counts as a failure
or towards the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# The one check that fails by design; it is tracked, never gated or loosened.
PM_EQUALITY = "pm_equality"

# A summary check whose residual is the maximum over a report section: the
# check's tolerance gates this field in every entry of the section.
SECTION_RESIDUALS = {
    "scalar_products": "max_pairwise_deviation",
    "form_factors": "deviation",
}

# Relative residuals below double-precision epsilon are at the noise floor.
EPS = 2.220446049250313e-16

# Spectrum record residual field -> the tolerance key that certifies it.
RECORD_RESIDUALS = {
    "bethe_residual": "bethe_residual",
    "tq_residual": "tq_residual",
    "discrete_char_residual": "discrete_char",
    "eigenstate_residual": "eigenstate_residual",
}


@dataclass
class Outcome:
    """What one op produced, as the benchmark counts it."""

    ok: bool
    reason: str = ""
    # False when the report contradicts itself or its exit code.
    consistent: bool = True
    # log10(tolerance / residual) of every residual a certifying flag gates
    margins: list[float] = field(default_factory=list)
    pm_equality: dict | None = None
    checks: int = 0
    failures: list[str] = field(default_factory=list)


def _walk(node, path=""):
    """Yield (path, dict) for every dict nested in a decoded JSON report."""
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from _walk(value, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _walk(value, f"{path}[{i}]")


def _margin(residual, tolerance) -> float | None:
    if residual is None or tolerance is None or tolerance <= 0:
        return None
    return math.log10(tolerance / max(float(residual), EPS))


def _section_margins(section, field_name: str, tolerance) -> list[float]:
    out = []
    for _, node in _walk(section):
        m = _margin(node.get(field_name), tolerance)
        if m is not None:
            out.append(m)
    return out


def classify(exit_code: int | None, report: dict | None, tolerances: dict,
             error: BaseException | None = None) -> Outcome:
    """Judge one op.

    ``exit_code`` is what ``main`` returned (None if it raised ``error``);
    ``report`` is the decoded report, or None when none was written;
    ``tolerances`` maps tolerance names to values, for the spectrum records,
    whose residuals the report lists without their tolerances.
    """
    if error is not None:
        # main() turns every SovxxzError into exit 2, so anything it lets
        # escape is a crash of the program, not a seed it may refuse.
        return Outcome(ok=False, consistent=False,
                       reason=f"raised {type(error).__name__}: {error}")
    if exit_code == 2:
        return Outcome(ok=False, reason="exit 2 (SovxxzError)")
    if report is None:
        return Outcome(ok=False, consistent=False,
                       reason=f"exit {exit_code} but no report was written")

    out = Outcome(ok=True)
    margins: list[float] = []
    all_flags: list[bool] = []
    for path, node in _walk(report):
        if not path:
            continue  # the top-level "pass" aggregates the checks below it
        if "pass" in node and "residual" in node and "tolerance" in node:
            passed = bool(node["pass"])
            all_flags.append(passed)
            if path.rsplit(".", 1)[-1] == PM_EQUALITY:
                out.pm_equality = {"residual": node["residual"],
                                   "tolerance": node["tolerance"], "pass": passed}
                continue
            out.checks += 1
            if not passed:
                out.failures.append(path)
            section = report.get(path.rsplit(".", 1)[-1])
            field_name = SECTION_RESIDUALS.get(path.rsplit(".", 1)[-1])
            if field_name and isinstance(section, dict) and section:
                margins.extend(_section_margins(section, field_name, node["tolerance"]))
            else:
                m = _margin(node["residual"], node["tolerance"])
                if m is not None:
                    margins.append(m)
        elif "certified" in node:
            certified = bool(node["certified"])
            all_flags.append(certified)
            out.checks += 1
            if not certified:
                out.failures.append(path)
            for key, tol_key in RECORD_RESIDUALS.items():
                m = _margin(node.get(key), tolerances.get(tol_key))
                if m is not None:
                    margins.append(m)

    if out.checks == 0:
        out.ok = False
        out.consistent = False
        out.reason = "report holds no check"
        return out
    if out.failures:
        out.ok = False
        out.reason = "failed " + ", ".join(out.failures[:3]) + (
            f" (+{len(out.failures) - 3} more)" if len(out.failures) > 3 else "")
    # exit 0 exactly when every flag passed, and the report's own verdict agrees
    everything = all(all_flags)
    if report.get("pass") is not everything or (exit_code == 0) is not everything:
        out.consistent = False
        out.reason = (out.reason + "; " if out.reason else "") + (
            f"exit {exit_code} and report pass={report.get('pass')!r} "
            f"disagree with its flags")
    if out.ok:
        out.margins = margins
    return out
