"""Spans and counters recorded around vrpdr entry points, from outside the package.

The tracer replaces module attributes with wrappers.  vrpdr modules call
each other through module globals (``assign_sorties(...)`` inside finder) or
module attributes (``energy_mod.sortie_energy(...)``), both looked up at call
time, so a wrapper installed on the defining module sees the internal calls
too.  Names imported with ``from x import y`` keep the original object and
are not traced.

Spans nest on one thread.  A span's self time is its duration minus the
time its direct child spans cover.  Only per-name aggregates are kept; they
are read out when the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _leftovers(tracer, args, result):
    tracer.totals["finder.insert_unserved.customers"] += len(args[1])


def _model_size(tracer, args, model):
    tracer.totals["milp.vars"] += len(model.variables)
    tracer.totals["milp.rows"] += len(model.constraints)


def _lp_size(tracer, args, text):
    tracer.totals["milp.lp_bytes"] += len(text.encode())


# (module, function, observer): the entry points the per-layer metrics are
# named after; a span is called "<module>.<function>"
SPANS = (
    ("bench", "generate_instance", None),
    ("finder", "solve_finder", None),
    ("finder", "construct_truck_routes", None),
    ("finder", "build_timeline", None),
    ("finder", "assign_sorties", None),
    ("finder", "insert_unserved", _leftovers),
    ("validator", "validate", None),
    ("validator", "simulated_makespan", None),
    ("validator", "build_ledgers", None),
    ("milp", "build_model", _model_size),
    ("milp", "export_lp", _lp_size),
    ("milp", "check_assignment", None),
    ("lp_io", "solve_lp_text", None),
    ("lp_io", "parse_lp", None),
    ("exact", "solve_exact", None),
)
# hot paths: calls counted, not timed
COUNTERS = (("energy", "sortie_energy"),)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)    # span name -> summed self time
        self.calls = defaultdict(int)       # span or counter name -> calls
        self.nested = defaultdict(int)      # (parent span, child span) -> calls
        self.totals = defaultdict(float)    # observed quantity -> summed value
        self._stack = []                    # open spans: [name, child seconds]
        self._patched = []

    def install(self) -> list:
        """Wrap every entry point in SPANS and COUNTERS.

        Returns the names of entry points vrpdr no longer has; their
        metrics read 0.
        """
        missing = []
        for mod, attr, observe in SPANS:
            if not self._wrap(mod, attr, lambda fn, name, o=observe: self._span(fn, name, o)):
                missing.append(f"{mod}.{attr}")
        for mod, attr in COUNTERS:
            if not self._wrap(mod, attr, self._counter):
                missing.append(f"{mod}.{attr}")
        return missing

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, mod, attr, make_wrapper) -> bool:
        module = importlib.import_module(f"vrpdr.{mod}")
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        self._patched.append((module, attr, fn))
        setattr(module, attr, make_wrapper(fn, f"{mod}.{attr}"))
        return True

    def _span(self, fn, name, observe):
        """``observe(tracer, args, result)`` runs after the call, outside the span."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack:
                self.nested[stack[-1][0], name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[name] += dt - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper
