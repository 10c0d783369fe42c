"""The benchmark's tracer (perfbench/spans.py) wraps functions by name; a
renamed or deleted function would silently empty its per-layer metrics."""

import ast
import importlib.util
from pathlib import Path

# the tracer patches names in every sovxxz module; cli imports observables
# only inside the commands that evaluate its formulas
import sovxxz
import sovxxz.cli  # noqa: F401
import sovxxz.observables  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# names the span list still traces though src/ defines them no more, in the
# order the tracer reports them absent; each goes when spans.py drops it
RETIRED = {
    "linalg.eig_dense": "deleted; the lattice tests compare against np.linalg.eig",
    "sov.matrix_element": "deleted; the form-factor tests' dense product is a conftest helper",
    "model.TrigInterpolation": "deleted; tau(lam) is an InterpolationBasis.weights row",
}


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == list(RETIRED)
    finally:
        tracer.uninstall()
    # a retired name defined anywhere in the package again fails too
    defined = {node.name for path in Path(sovxxz.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined.isdisjoint(name.split(".")[-1] for name in RETIRED)
