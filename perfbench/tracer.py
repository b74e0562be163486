"""Outside-in span tracing of the hartree_mix package.

`Tracer.install()` wraps every public function of the package modules
(their ``__all__`` plus ``quadrature.filon_weights``, which ``nonlinear``
imports) at every ``hartree_mix.*`` module attribute that refers to it, so
names bound with ``from .quadrature import filon_transform`` are wrapped
too.  Each call records a span (name, start, end, parent span) in memory.
Work counts are read only from arguments and return values; the package
itself is not modified and computes exactly what it computes untraced.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("quadrature", "profiles", "dispersion", "stability", "green",
           "dynamics", "nonlinear", "pipeline")
EXTRA = {"quadrature": ("filon_weights",)}


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _filon_work(args, kwargs, result, counts):
    fvals = kwargs.get("fvals", args[0] if args else None)
    omegas = kwargs.get("omegas", args[3] if len(args) > 3 else None)
    _add(counts, "samples_x_freqs", np.shape(fvals)[-1] * np.size(omegas))


def _evaluations(args, kwargs, result, counts):
    _add(counts, "evaluations", result.evaluations)


def _nodes(args, kwargs, result, counts):
    _add(counts, "nodes", result.nodes)


def _green_rows(args, kwargs, result, counts):
    k_grid = kwargs.get("k_grid", args[2] if len(args) > 2 else None)
    _add(counts, "rows", int(np.count_nonzero(np.asarray(k_grid, dtype=float))))
    counts["tau_max_used"] = max(counts.get("tau_max_used", 0.0),
                                 float(result.tau_max_used))


def _iterations(args, kwargs, result, counts):
    _add(counts, "iterations", result[3].iterations)


# work counts per wrapped function, from its arguments and return value
COUNTERS = {
    "quadrature.filon_transform": _filon_work,
    "quadrature.adaptive_gauss": _evaluations,
    "quadrature.pv_integral": _evaluations,
    "quadrature.halfline_laplace_fourier": _evaluations,
    "stability.winding_number": _nodes,
    "green.green_table": _green_rows,
    "nonlinear.solve_selfconsistent": _iterations,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: dict[str, dict[str, float]] = {}
        self.caches: list = []           # HilbertTransformCache instances
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        counts = self.counts.setdefault(name, {})
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(args, kwargs, result, counts)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions; call after importing hartree_mix."""
        import hartree_mix.dispersion as dispersion

        originals = {}
        for short in MODULES:
            mod = sys.modules[f"hartree_mix.{short}"]
            for attr in list(mod.__all__) + list(EXTRA.get(short, ())):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "hartree_mix" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(mod, attr, wrapper)

        cls = dispersion.HilbertTransformCache
        init = cls.__init__
        caches = self.caches

        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            caches.append(obj)

        cls.__init__ = registering_init

    def summary(self) -> dict:
        """Per-function calls, inclusive and self time, and work counts."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        parent = np.array([s[3] for s in self.spans], dtype=int) \
            if n else np.zeros(0, dtype=int)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        names = [s[0] for s in self.spans]
        # a call nested inside a call of the same function is not counted
        # again in that function's inclusive time
        nested = [p >= 0 and self._has_ancestor(p, names[i])
                  for i, p in enumerate(parent)]
        functions = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                            **counts}
                     for name, counts in self.counts.items()}
        for i in range(n):
            f = functions[names[i]]
            f["calls"] += 1
            f["self_s"] += float(dur[i] - child[i])
            if not nested[i]:
                f["total_s"] += float(dur[i])
        hits = sum(c.hits for c in self.caches)
        misses = sum(c.misses for c in self.caches)
        return {"functions": functions, "spans": n,
                "hilbert_cache": {"instances": len(self.caches),
                                  "hits": hits, "misses": misses}}

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write_spans(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": [[index[s[0]], s[1], s[2], s[3]]
                                 for s in self.spans]}, fh)
