"""Every function and method defined in ``src/sovxxz/*.py`` is reached by a
command, or is named in ``UNREACHED`` with the reason it is not.

The test runs ``spectrum``, ``observables`` (kappa' != kappa and kappa' =
kappa) and ``validate`` at n = 3 under ``sys.setprofile`` in a fresh
interpreter, so no cache or state an earlier test left can hide a call, and
compares the functions no run called with ``UNREACHED``.  The same process
also reports whether ``numpy.random`` was imported, which no command may do:
the package draws through ``sovxxz.rng``.  A function counts as
defined when it is a module-level function or a method of a module-level
class; functions nested inside functions are not listed.  Every module of the
package is imported before the runs, so what runs only at import counts as
unreached.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sovxxz

PACKAGE = Path(sovxxz.__file__).resolve().parent

UNREACHED = {
    # refusal or import-time paths
    "errors.SovxxzError.__init__": "runs only when a refusal is raised",
    "errors.names_refusals": "runs at import, to build the record and pair decorators",
}

RUNS = (
    ("spectrum", {"n": 3}),
    ("observables", {"n": 3}),
    ("observables", {"n": 3, "kappa_prime": [1.0, 0.0]}),
    ("validate", {"n": 3}),
)


# argv: the directory holding the package, then a JSON list of (command,
# config path, report path); prints the codes, the (file, first line) of
# every code object called and whether numpy.random got imported, as JSON
TRACE = """\
import json, sys, threading
sys.path.insert(0, sys.argv[1])
import sovxxz.cli as cli
import sovxxz.observables  # imported by two commands only when they run
called, codes = set(), []
def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
threading.setprofile(profile)
for command, cfg, out in json.loads(sys.argv[2]):
    codes.append(cli.main([command, "--config", cfg, "--out", out]))
threading.setprofile(None)
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called),
                  "numpy_random": "numpy.random" in sys.modules}))
"""


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
    runs = []
    for i, (command, config) in enumerate(RUNS):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(config))
        runs.append((command, str(cfg), str(tmp_path / f"report{i}.json")))
    done = subprocess.run([sys.executable, "-c", TRACE, str(PACKAGE.parent), json.dumps(runs)],
                          capture_output=True, text=True, timeout=120, check=True)
    traced = json.loads(done.stdout)
    # each run wrote its report; observables exits 1 through pm_equality
    assert 2 not in traced["codes"]
    assert not traced["numpy_random"], "a command imported numpy.random"
    reached = {(os.path.realpath(name), line) for name, line in traced["called"]}
    unreached = {name for key, name in defined_functions().items() if key not in reached}
    assert unreached == set(UNREACHED), (
        f"reached or deleted though named: {sorted(set(UNREACHED) - unreached)}; "
        f"unreached and not named: {sorted(unreached - set(UNREACHED))}")
