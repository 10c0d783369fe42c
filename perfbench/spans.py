"""Span tracing of the sovxxz layers, wrapped from outside the package.

The package imports by name (``from .lattice import transfer_k`` in
``spectrum``, ``local_op`` in ``cli``, ``det_lu`` in ``observables``), so a
function is replaced in every ``sovxxz`` module that holds it, not only where
it is defined; otherwise calls made through the imported name slip past the
trace.  Hot scalar callables get count-only wrappers.  A name the package no
longer has is reported as absent instead of failing the run.

Spans carry their parent span and op ids and stay in memory; ``write`` puts
them in a JSON-lines file once the run is over.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, qualified name) of each public function timed with a span.
SPANS = (
    ("cli", "cmd_validate"),
    ("cli", "cmd_spectrum"),
    ("cli", "cmd_observables"),
    ("cli", "write_report"),
    ("lattice", "monodromy_entries"),
    ("lattice", "transfer_k"),
    ("lattice", "spectrum_oracle"),
    ("lattice", "local_op"),
    ("lattice", "dress_local_operator"),
    ("linalg", "det_lu"),
    ("linalg", "eig_dense"),
    ("model", "q_structure_residuals"),
    ("spectrum", "solve_spectrum"),
    ("spectrum", "q_from_tau"),
    ("spectrum", "refine_bethe"),
    ("spectrum", "certify"),
    ("spectrum", "eigenstate_residual"),
    ("sov", "SovBasis.__init__"),
    ("sov", "separate_state"),
    ("sov", "matrix_element"),
    ("observables", "sp_direct"),
    ("observables", "sp_izergin"),
    ("observables", "sp_slavnov"),
    ("observables", "sp_tau"),
    ("observables", "tau_matrix"),
    ("observables", "slavnov_matrix"),
    ("observables", "ff_sigma_z"),
    ("observables", "ff_sigma_pm"),
    ("observables", "identity_bench"),
)

# Called ~10^5 times per op: counted, not timed.
COUNTS = (
    ("model", "TrigInterpolation.__call__"),
)

PACKAGE = "sovxxz"


def metric_name(module: str, qualname: str) -> str:
    """``SovBasis.__init__`` is reported as ``sov.SovBasis``."""
    name = qualname[:-len(".__init__")] if qualname.endswith(".__init__") else qualname
    name = name[:-len(".__call__")] if name.endswith(".__call__") else name
    return f"{module}.{name}"


class Tracer:
    """Installs wrappers on the loaded ``sovxxz`` modules and collects spans.

    A span is ``(span_id, parent_id, op_id, name, start, end, raised)``.
    """

    def __init__(self, package: str = PACKAGE):
        self.package = package
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = [0]
        self._next_id = 1
        self._op_id = 0
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name wherever a ``sovxxz`` module holds it."""
        pkg = self.package
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == pkg or name.startswith(pkg + "."))}
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for module, qualname in table:
                name = metric_name(module, qualname)
                if table is COUNTS:
                    self.counts.setdefault(name, 0)
                mod = modules.get(f"{pkg}.{module}")
                owner, attr = self._resolve(mod, qualname)
                if owner is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                original = owner.__dict__[attr]
                wrapper = make(name, original)
                if owner is not mod:
                    # a method: patching its class reaches every caller
                    self._patch(owner, attr, original, wrapper)
                    self.sites[name] = [f"{module}.{qualname}"]
                    continue
                self.sites[name] = []
                for mod_name, other in modules.items():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, original, wrapper)
                            self.sites[name].append(f"{mod_name}.{key}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _resolve(mod, qualname):
        """(object holding the final attribute, attribute) or (None, None)."""
        if mod is None:
            return None, None
        owner = mod
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if not isinstance(owner, type):
                return None, None
        if parts[-1] not in vars(owner) or not callable(vars(owner)[parts[-1]]):
            return None, None
        return owner, parts[-1]

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self._op_id, name, start, end, raised))

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- ops ----------------------------------------------------------------

    def run_op(self, op_id: int, call):
        """Run ``call()`` as the root span of op ``op_id``; return its result."""
        self._op_id = op_id
        wrapped = self._span_wrapper("op", call)
        return wrapped()

    def op_stats(self, op_id: int) -> dict[str, dict[str, float]]:
        """Per-name ``calls``, ``raised``, ``busy_s`` and ``self_s`` of one op."""
        spans = [s for s in self.spans if s[2] == op_id]
        child_time: dict[int, float] = {}
        for span_id, parent, _, _, start, end, _ in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        stats: dict[str, dict[str, float]] = {}
        for span_id, _, _, name, start, end, raised in spans:
            entry = stats.setdefault(name, {"calls": 0, "raised": 0,
                                            "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["raised"] += int(raised)
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        return stats

    def take_counts(self) -> dict[str, int]:
        """Count-only totals since the last call, then reset them."""
        taken = dict(self.counts)
        for key in self.counts:
            self.counts[key] = 0
        return taken

    def write(self, path) -> None:
        """Write every span recorded, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
