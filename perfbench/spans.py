"""Spans recorded from outside the program, around calls into each module.

``Tracer.install`` replaces every public function named in ``TARGETS`` by a
timing wrapper, under every name a ``grouplin`` module has for it (``cli``
calls ``derandomize`` through its own import, ``decode`` calls
``select_omega`` through the ``decoder`` globals). Spans stay in memory and
are written out as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict

import inputs

# (module, function): the span is named "<module>.<function>".
TARGETS = (
    ("groups", "validate_template"),
    ("groups", "fold"),
    ("reps", "irreps"),
    ("reps", "eta"),
    ("fourier", "transform"),
    ("fourier", "inverse"),
    ("fourier", "plancherel_gap"),
    ("fourier", "convolve"),
    ("fourier", "noise_apply"),
    ("fourier", "product_irreps"),
    ("reduction", "build_system"),
    ("reduction", "payoff_distribution"),
    ("reduction", "evaluate"),
    ("solvers", "derandomize"),
    ("solvers", "random_expectation"),
    ("decoder", "make_context"),
    ("decoder", "decode"),
    ("decoder", "select_omega"),
    ("decoder", "influence_probs"),
    ("decoder", "derandomize_strategy"),
    ("io", "system_to_obj"),
    ("io", "canonical_dumps"),
    ("io", "load_system"),
    ("cli", "run_pipeline"),
)


def _build_counts(args, result):
    # Tuples are computed from input sizes; equations are counted.
    return {
        "reduction.tuples": inputs.raw_tuples(args["lc"], args["template"]),
        "reduction.equations": len(result.equations),
    }


def _derandomize_counts(args, result):
    # Computed: sum over x of |H| * #equations touching x.
    template = args["template"]
    h = template.h1 if args["side"] == 1 else template.h2
    touches = sum(len({v for v, _ in eq.terms}) for eq in args["system"].equations)
    return {"solvers.derandomize.rescored_equations": len(h) * touches}


def _transform_counts(args, result):
    # Computed: n^2 * N^2 complex multiply-adds (sum of d^2 over irreps is n).
    fn = args["fn"]
    n, size = fn.power.n, fn.matrix_size or 1
    return {"fourier.transform.macs": n * n * size * size}


def _convolve_counts(args, result):
    # Computed: n^2 * N^3 complex multiply-adds.
    fn = args["f"]
    n, size = fn.power.n, fn.matrix_size or 1
    return {"fourier.convolve.macs": n * n * size**3}


COUNTERS = {
    "reduction.build_system": _build_counts,
    "solvers.derandomize": _derandomize_counts,
    "fourier.transform": _transform_counts,
    "fourier.convolve": _convolve_counts,
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]. Spans and
    counts outside an op (``op`` is None) belong to set-up."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None and self.op is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in counter(bound, result).items():
                    self.count(key, value)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target under every name a ``grouplin`` module has for it;
        the benchmark calls through those modules' attributes."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "grouplin"]
        for mod_name, fn_name in TARGETS:
            fn = getattr(sys.modules[f"grouplin.{mod_name}"], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    def totals(self):
        """Per span name, over spans inside ops: (calls, busy, self) and, over
        set-up spans, busy. Self time subtracts direct children; calls on one
        thread never overlap, so children never overlap either."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, busy, self_t, setup = (defaultdict(float) for _ in range(4))
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                setup[name] += end - start
                continue
            calls[name] += 1
            busy[name] += end - start
            self_t[name] += end - start - child[idx]
        return calls, busy, self_t, setup
