"""Spans around calls into the program's layers, recorded from outside.

Each layer function is wrapped once and the wrapper is installed at every
name a caller looks it up by (``solver`` imports ``_g_table`` and
``recurse`` by name, ``fock`` imports ``lowest_eigenvalues``, ``cli``
imports the solver and oracle entry points).  Spans stay in memory; a
layer's self time is its span minus its child spans.  A function that a
refactor has removed is listed as unmeasured instead of stopping the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np


def _kernel_info(args, kwargs, result):
    energies = args[2] if len(args) > 2 else kwargs["energies"]
    n_terms = args[3] if len(args) > 3 else kwargs["n_terms"]
    return int(np.size(energies)), int(n_terms)


def _zeros_info(args, kwargs, result):
    return len(result), sum(1 for _, resolved in result if not resolved)


def _rows_info(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    return int(np.shape(matrix)[0])


#: (span name, defining module, attribute, modules that look it up by name,
#: function extracting per-call facts from (args, kwargs, result))
LAYERS = (
    ("series.kernel", "series", "_g_table", ("series", "solver"), _kernel_info),
    ("series.recurse", "series", "recurse", ("series", "solver"), None),
    ("solver.search", "solver", "find_regular_zeros", ("solver", "cli"), _zeros_info),
    ("solver.classify", "solver", "classify_exceptional", ("solver", "cli"), None),
    ("solver.lift_search", "solver", "find_degenerate_g", ("solver", "cli"), None),
    ("solver.sweep", "solver", "spectrum_sweep", ("solver", "cli"), None),
    ("solver.crossings", "solver", "detect_crossings", ("solver", "cli"), None),
    ("fock.build", "fock", "build_hamiltonian", ("fock", "cli"), None),
    ("fock.diagonalize", "fock", "diagonalize", ("fock", "cli"), None),
    ("eigensolver", "eigensolver", "lowest_eigenvalues", ("eigensolver", "fock"), _rows_info),
    ("cli.main", "cli", "main", ("cli",), None),
)


class Tracer:
    """Records spans ``[name, parent, start, end, unit, info]`` in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.unmeasured: list[str] = []
        self._stack: list[int] = []
        self._unit = -1
        self._sites: list[tuple[object, str, object, object]] = []
        for name, home, attr, callers, info in LAYERS:
            module = importlib.import_module(f"starkspec.{home}")
            original = getattr(module, attr, None)
            if original is None:
                self.unmeasured.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(name, original, info)
            for caller in callers:
                mod = importlib.import_module(f"starkspec.{caller}")
                if getattr(mod, attr, None) is original:
                    self._sites.append((mod, attr, original, wrapper))

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, self._unit, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                record[5] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run(self, unit: int, fn):
        """Call ``fn()`` with every wrapper installed, spans tagged ``unit``."""
        self._unit = unit
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        try:
            return fn()
        finally:
            for mod, attr, original, _ in self._sites:
                setattr(mod, attr, original)


def layer_totals(spans, unit_scale):
    """Per-layer sums over all spans, times scaled by their unit's factor.

    Returns ``(layers, kernel_samples, kernel_under_search)``: ``layers`` maps
    a span name to ``{"calls", "total_s", "self_s", "info": [...]}``;
    ``kernel_samples`` holds (n_terms, points, scaled s) per kernel call;
    ``kernel_under_search`` counts kernel calls made inside a zero search.
    """
    child_time = defaultdict(float)
    for name, parent, t0, t1, unit, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": []})
    samples = []
    under_search = 0
    for i, (name, parent, t0, t1, unit, info) in enumerate(spans):
        f = unit_scale[unit]
        rec = layers[name]
        rec["calls"] += 1
        rec["total_s"] += (t1 - t0) * f
        rec["self_s"] += (t1 - t0 - child_time[i]) * f
        if info is not None:
            rec["info"].append(info)
        if name == "series.kernel":
            samples.append((info[1], info[0], (t1 - t0) * f))
            if parent >= 0 and spans[parent][0] == "solver.search":
                under_search += 1
    return dict(layers), samples, under_search


def kernel_fit(samples, n_terms):
    """Least-squares (fixed us per call, ns per point) at one truncation."""
    pts = np.array([p for n, p, _ in samples if n == n_terms], dtype=float)
    sec = np.array([s for n, _, s in samples if n == n_terms], dtype=float)
    if pts.size < 2 or np.ptp(pts) == 0:
        return 0.0, 0.0
    slope, intercept = np.polyfit(pts, sec, 1)
    return float(intercept * 1e6), float(slope * 1e9)
