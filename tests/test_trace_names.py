"""The benchmark's tracer (perfbench/spans.py) wraps functions by name; a
renamed or deleted function would silently empty its per-layer metrics."""

import importlib.util
from pathlib import Path

import sovxxz.cli  # noqa: F401  (loads every sovxxz module the tracer patches)

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
