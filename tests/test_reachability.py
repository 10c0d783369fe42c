"""Every function and method defined in ``src/sovxxz/*.py`` is reached by a
command, or is named in ``UNREACHED`` with the reason it is not.

The test runs ``spectrum``, ``observables`` (kappa' != kappa and kappa' =
kappa) and ``validate`` at n = 3 in this process under ``sys.setprofile`` and
compares the functions no run called with ``UNREACHED``.  A function counts as
defined when it is a module-level function or a method of a module-level
class; functions nested inside functions are not listed.  Every module of the
package is imported before the runs, so what runs only at import counts as
unreached.
"""

import ast
import json
import os
import sys
import threading
from pathlib import Path

import sovxxz
import sovxxz.cli as cli
import sovxxz.observables  # noqa: F401  imported by two commands only when they run

PACKAGE = Path(sovxxz.__file__).resolve().parent

UNREACHED = {
    # refusal or import-time paths
    "errors.SovxxzError.__init__": "runs only when a refusal is raised",
    "errors.names_refusals": "runs at import, to build the record and pair decorators",
    # test references that perfbench/spans.py traces, kept until the span list
    # changes (ROADMAP item 13)
    "linalg.eig_dense": "the dense eigensolve the lattice and CLI tests compare against",
    "linalg.as_square_matrix": "the shape guard of eig_dense",
    "sov.matrix_element": "the dense matrix-element oracle of the form-factor tests",
    "model.TrigInterpolation.__init__": "tau(lam) of a record in the tests",
    "model.TrigInterpolation.__call__": "tau(lam) of a record in the tests",
    "model.TrigInterpolation.deriv": "tau'(lam) of a record in the tests",
}

RUNS = (
    ("spectrum", {"n": 3}),
    ("observables", {"n": 3}),
    ("observables", {"n": 3, "kappa_prime": [1.0, 0.0]}),
    ("validate", {"n": 3}),
)


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> ``module.qualname`` of every
    module-level function and method of a module-level class in the package.
    A decorated function's code starts at its first decorator."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = f"{path.stem}.{prefix}{child.name}"
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_every_function_is_reached_or_named(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for i, (command, config) in enumerate(RUNS):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps(config))
            codes.append(cli.main([command, "--config", str(cfg),
                                   "--out", str(tmp_path / f"report{i}.json")]))
    finally:
        threading.setprofile(None)
        sys.setprofile(previous)
    # each run wrote its report; observables exits 1 through pm_equality
    assert 2 not in codes
    reached = {(os.path.realpath(name), line) for name, line in called}
    unreached = {name for key, name in defined_functions().items() if key not in reached}
    assert unreached == set(UNREACHED), (
        f"reached or deleted though named: {sorted(set(UNREACHED) - unreached)}; "
        f"unreached and not named: {sorted(unreached - set(UNREACHED))}")
