"""The benchmark's tracer (perfbench/spans.py) wraps functions by name; a
renamed or deleted function would silently empty its per-layer metrics."""

import importlib.util
from pathlib import Path

# the tracer patches names in every sovxxz module; cli imports observables
# only inside the commands that evaluate its formulas
import sovxxz.cli  # noqa: F401
import sovxxz.observables  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
