"""Spans around the public functions of each eulersums layer.

The wrappers live here, in the benchmark, not in the program.  ``install``
replaces each traced function in every loaded eulersums module that binds
it, including dict values such as the CLI's dispatch table, so call it
once after importing the package and again after importing
``eulersums.cli``.  Spans stay in memory; ``summary`` reduces them to self
time and calls per layer, ``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

# (defining module, function) -> layer
TRACED = {
    ("eulersums.numeric", "u_num"): "numeric.uvw",
    ("eulersums.numeric", "v_num"): "numeric.uvw",
    ("eulersums.numeric", "w_num"): "numeric.uvw",
    ("eulersums.numeric", "eta_num"): "numeric.eta_zeta",
    ("eulersums.numeric", "zeta_num"): "numeric.eta_zeta",
    ("eulersums.numeric", "gamma_num"): "numeric.gamma_digamma",
    ("eulersums.numeric", "digamma_num"): "numeric.gamma_digamma",
    ("eulersums.numeric", "eta_prime_num"): "numeric.eta_prime",
    ("eulersums.hankel", "g_num"): "hankel.g_num",
    ("eulersums.exact", "bernoulli"): "exact.bernoulli",
    ("eulersums.exact", "euler_polynomial"): "exact.euler_polynomial",
    ("eulersums.exact", "euler_eval"): "exact.euler_polynomial",
    ("eulersums.exact", "genocchi"): "exact.genocchi",
    ("eulersums.exact", "euler_zero"): "exact.euler_zero",
    ("eulersums.closed_forms", "c_coefficients"): "closed_forms.c_coefficients",
    ("eulersums.closed_forms", "u_value"): "closed_forms.values",
    ("eulersums.closed_forms", "v_value_even"): "closed_forms.values",
    ("eulersums.closed_forms", "v_residue"): "closed_forms.values",
    ("eulersums.closed_forms", "w_value"): "closed_forms.values",
    ("eulersums.verify", "run_exact_identities"): "verify.suite",
    ("eulersums.verify", "run_continuation"): "verify.suite",
    ("eulersums.verify", "run_theorem4"): "verify.suite",
    ("eulersums.cli", "to_json"): "cli.serialize",
    ("eulersums.cli", "fmt_rational"): "cli.serialize",
}

LAYERS = sorted(set(TRACED.values()))


class Tracer:
    """Records [layer, start_ns, end_ns, parent index] per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    def span(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter_ns()

        return traced

    def install(self) -> None:
        """Wrap every traced function in each loaded eulersums module."""
        for (module, name), layer in TRACED.items():
            if module not in sys.modules:
                continue
            original = getattr(sys.modules[module], name)
            if id(original) not in self._wrappers and original not in self._wrappers.values():
                self._wrappers[id(original)] = self.span(layer, original)
        for modname, mod in list(sys.modules.items()):
            if modname != "eulersums" and not modname.startswith("eulersums."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in value.items():
                        wrapper = self._wrappers.get(id(item))
                        if wrapper is not None:
                            value[key] = wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls and self time (duration minus child spans), ms."""
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {layer: {"calls": 0, "self_ms": 0.0} for layer in LAYERS}
        for (layer, start, end, _), inner in zip(self.spans, child_ns):
            entry = out.setdefault(layer, {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - inner) / 1e6
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def import_and_install(tracer: Tracer | None):
    """Import the package, wrap, then import the CLI and wrap again, so the
    bindings the CLI captures at import are the wrapped ones."""
    importlib.import_module("eulersums.verify")
    if tracer is not None:
        tracer.install()
    cli = importlib.import_module("eulersums.cli")
    if tracer is not None:
        tracer.install()
    return cli
