"""Spans and call counts recorded around heavyq's public functions, from outside.

The tracer replaces a function or method with a wrapper wherever the name is
looked up (every ``heavyq`` module namespace that binds the same object, or
the class that owns a method) and puts the originals back on ``restore``.
Spans are kept in memory as ``[name, start, end, parent]`` rows; hot calls
are only counted, because a span per call would cost more than the call.
The program itself is not modified.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.keys: dict = defaultdict(set)   # name -> distinct argument keys
        self._stack: list = []
        self._patches: list = []       # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------
    def spanned(self, name: str, fn, key=None):
        """Wrap fn so each call records a span; key(args) feeds repeat ratios."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return wrapper

    def counted(self, name: str, fn, points=None):
        """Wrap fn so calls are counted (and, with points, the points per call)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if points is not None:
                counts[name + ".points"] += points(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------
    def patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, module, attr: str, wrap):
        """Replace module.attr in every heavyq namespace that binds the same object."""
        original = getattr(module, attr)
        wrapper = wrap(original)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "heavyq" or mod_name.startswith("heavyq.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, name, wrapper)

    def patch_method(self, cls, attr: str, wrap):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self.patch(cls, attr, staticmethod(wrap(raw.__func__)))
        else:
            self.patch(cls, attr, wrap(raw))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only spans without an ancestor of the same name,
        so recursion is not counted twice.  Self time is a span's duration
        minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[idx]
            anc = parent
            while anc >= 0 and self.spans[anc][0] != name:
                anc = self.spans[anc][3]
            if anc < 0:
                row["s"] += end - start
        return dict(out)

    def repeat_ratio(self, name: str) -> float:
        """Calls divided by distinct argument keys (0 when never called)."""
        distinct = len(self.keys.get(name, ()))
        return self.counts[name] / distinct if distinct else 0.0


def instrument(tracer: Tracer) -> None:
    """Install the benchmark's spans and counters on heavyq's public names.

    Call ``tracer.restore()`` afterwards, also when the traced code raised.
    """
    from heavyq import (base_solver, cli, correction, heavytail, measures, model,
                        oracle, perturbation, polyalg, symbolic_kernel)

    def by_solution_and_variant(sol, ht, variant="replace"):
        return id(sol), variant

    def by_model_and_service(mdl, pt, r):
        return id(mdl), id(pt), r

    spans = [
        (correction, "heavy_conv_survival", None),
        (correction, "heavy_between", None),
        (correction, "theta", None),
        (correction, "correction_coeffs", None),
        (heavytail, "abate_whitt", None),
        (perturbation, "perturb", by_solution_and_variant),
        (perturbation, "verify_delta_identity", None),
        (symbolic_kernel, "det_E", None),
        (symbolic_kernel, "adjoint_matrix", None),
        (symbolic_kernel, "xi_polys", by_model_and_service),
        (polyalg, "poly_roots", None),
        (polyalg, "partial_fractions", None),
        (base_solver, "solve_base", None),
        (oracle, "exact_solve", None),
        (oracle, "invert", None),
        (oracle, "simulate", None),
        (cli, "parse_config", None),
        (model, "build_mmpp", None),
    ]
    for module, attr, key in spans:
        name = f"{module.__name__.removeprefix('heavyq.')}.{attr}"
        tracer.patch_function(module, attr,
                              lambda fn, name=name, key=key: tracer.spanned(name, fn, key))
    tracer.patch_function(correction, "quad",
                          lambda fn: tracer.counted("correction.quad", fn))

    methods = [
        (measures.ExpPolyMeasure, "convolve", "measures.ExpPolyMeasure.convolve", True),
        (measures.ExpPolyMeasure, "from_rational", "measures.ExpPolyMeasure.from_rational", True),
        (measures.ExpPolyMeasure, "density", "measures.ExpPolyMeasure.density", False),
        (polyalg.Poly, "__call__", "polyalg.Poly.call", False),
        (symbolic_kernel.GPoly, "__call__", "symbolic_kernel.GPoly.call", False),
        (oracle.ExactSolution, "transform", "oracle.ExactSolution.transform", False),
    ]
    for cls, attr, name, with_span in methods:
        wrap = tracer.spanned if with_span else tracer.counted
        tracer.patch_method(cls, attr, lambda fn, name=name, wrap=wrap: wrap(name, fn))


def count_excess_survival(tracer: Tracer, fn):
    """Counting wrapper for a HeavyTail's excess_survival (calls and points)."""
    return tracer.counted("heavytail.excess_survival", fn, points=lambda t: np.size(t))
