"""Span tracer for the benchmark's traced run.

The tracer wraps scorekit's public functions and a few hot methods from the
outside, without touching the package source. Modules import kernel and
linear-algebra functions by name (``from .kernels import h_vector``), so
wrapping ``scorekit.kernels.h_vector`` alone would miss every call made
through ``scorekit.estimators.h_vector``. The tracer therefore replaces every
attribute, in every loaded scorekit module, that *is* a traced function, and
patches methods on their class. Leaving the ``with`` block restores each
replaced attribute to the original object.

Each call records a span (name, start, end, parent). Self time is a span's
duration minus the durations of its direct children; the calls are strictly
nested because the benchmark drives the package from one thread.
"""

import functools
import inspect
import sys
import time
import tracemalloc

MODULES = ("kernels", "spectral_linalg", "estimators", "oracles", "bench", "cli")

METHODS = {
    "kernels": {
        "ScalarRadialKernel": ("phi", "dphi", "d2phi", "d3phi"),
        "DenseGram": ("matvec",),
        "ImplicitGram": ("matvec",),
    },
}

# the four radial derivative tables are one layer, and so are the sweep's
# CSV writers
RENAME = {f"kernels.ScalarRadialKernel.{m}": "kernels.radial"
          for m in ("phi", "dphi", "d2phi", "d3phi")}
RENAME.update({f"bench.write_{t}_csv": "bench.write"
               for t in ("rows", "timings", "summary", "slopes")})

_MB = 1e6


def _rows(x) -> int:
    return int(getattr(x, "shape", (1,))[0]) if getattr(x, "ndim", 0) else 1


# Counts taken at a layer boundary from the call's arguments and result.
# Keys ending in "_max" aggregate by maximum, all others by sum. gflop and
# out_mb are computed from array shapes, not measured traffic.
COUNTERS = {
    "kernels.radial": lambda a, r: {"elems": int(getattr(r, "size", 1))},
    "kernels.cross_gram": lambda a, r: {"out_mb": r.nbytes / _MB},
    "spectral_linalg.conjugate_gradient": lambda a, r: {
        "iters": r[1].iterations, "unconverged": int(not r[1].converged)},
    "spectral_linalg.solve_spd": lambda a, r: {"gflop": _rows(a[0]) ** 3 / 3e9},
    "spectral_linalg.sym_eig": lambda a, r: {"dim_max": _rows(a[0])},
    "estimators.predict": lambda a, r: {"queries": _rows(r)},
}


_FITS = ("fit_tikhonov", "fit_tikhonov_cg", "fit_truncated_tikhonov",
         "fit_spectral_cutoff", "landweber_path", "nu_method_path", "fit_nystrom",
         "fit_landweber", "fit_nu_method")

# (layer, fields) reported by the traced run, in output order
LAYER_METRICS = (
    ("kernels.radial", ("calls", "self_ms", "elems")),
    ("kernels.h_vector", ("calls", "total_ms")),
    ("kernels.zeta_batch", ("calls", "self_ms")),
    ("kernels.sq_dists", ("calls", "self_ms")),
    ("kernels.cross_gram", ("calls", "self_ms", "out_mb")),
    ("kernels.ImplicitGram.matvec", ("calls", "self_ms")),
    ("spectral_linalg.conjugate_gradient", ("calls", "self_ms", "iters", "unconverged")),
    ("kernels.DenseGram.matvec", ("calls", "self_ms")),
    ("spectral_linalg.power_iteration", ("calls", "self_ms")),
    ("spectral_linalg.solve_spd", ("calls", "self_ms", "gflop")),
    ("spectral_linalg.sym_eig", ("calls", "self_ms", "dim_max")),
    ("kernels.cross_apply", ("calls", "self_ms")),
    ("estimators.predict", ("calls", "total_ms", "queries", "peak_mb")),
) + tuple((f"estimators.{f}", ("calls", "total_ms", "peak_mb")) for f in _FITS) + tuple(
    (f"oracles.{f}", ("calls", "self_ms"))
    for f in ("sample", "score_batch", "median_bandwidth")) + (
    ("estimators.save_estimator", ("total_ms",)),
    ("estimators.load_estimator", ("total_ms",)),
    ("oracles.save_samples_csv", ("total_ms",)),
    ("oracles.load_samples_csv", ("total_ms",)),
    ("bench.run_grid_rows", ("total_ms",)),
    ("bench.write", ("total_ms",)),
    ("cli.main", ("calls", "total_ms")),
)

UNITS = {"calls": "count", "total_ms": "ms", "self_ms": "ms", "peak_mb": "MB",
         "elems": "count", "iters": "count", "unconverged": "count",
         "dim_max": "count", "queries": "count",
         "out_mb": "MB-computed", "gflop": "GFLOP-computed"}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "peak_bytes", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.peak_bytes = 0
        self.counts = {}


class _Span:
    __slots__ = ("name", "start", "index", "parent", "child_s", "mem0", "mem_hi")

    def __init__(self, name, start, index, parent, mem0):
        self.name = name
        self.start = start
        self.index = index
        self.parent = parent
        self.child_s = 0.0
        self.mem0 = mem0
        self.mem_hi = mem0


class Tracer:
    """Context manager that traces scorekit calls while it is active.

    It also runs tracemalloc and records, per layer, the highest traced
    allocation above the level at span entry.
    """

    def __init__(self):
        self.stats = {}
        self.spans = []          # (name, start_s, end_s, parent index or -1)
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------------
    # span bookkeeping

    def _open(self, name):
        mem0, peak = tracemalloc.get_traced_memory()
        if self._stack:
            top = self._stack[-1]
            top.mem_hi = max(top.mem_hi, peak)
        tracemalloc.reset_peak()
        parent = self._stack[-1].index if self._stack else -1
        span = _Span(name, time.perf_counter(), len(self.spans), parent, mem0)
        self.spans.append(None)          # filled on close; keeps call order
        self._stack.append(span)
        return span

    def _close(self, span, counts):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - span.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += dur
        stat = self.stats.get(span.name)
        if stat is None:
            stat = self.stats[span.name] = Stat()
        stat.calls += 1
        stat.total_s += dur
        stat.self_s += dur - span.child_s
        _, peak = tracemalloc.get_traced_memory()
        hi = max(span.mem_hi, peak)
        stat.peak_bytes = max(stat.peak_bytes, hi - span.mem0)
        if parent is not None:
            parent.mem_hi = max(parent.mem_hi, hi)
        tracemalloc.reset_peak()
        for key, val in counts.items():
            old = stat.counts.get(key, 0)
            stat.counts[key] = max(old, val) if key.endswith("_max") else old + val
        self.spans[span.index] = (span.name, span.start, end, span.parent)

    def _wrap(self, fn, name):
        name = RENAME.get(name, name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            counts = {}
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, result)
                return result
            finally:
                tracer._close(span, counts)

        return traced

    # ------------------------------------------------------------------
    # patching

    def __enter__(self):
        pkg = sys.modules["scorekit"]
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"scorekit.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for mod in [pkg] + [sys.modules[f"scorekit.{s}"] for s in MODULES]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for short, classes in METHODS.items():
            mod = sys.modules[f"scorekit.{short}"]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(orig, f"{short}.{cls_name}.{meth}"))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    # ------------------------------------------------------------------

    def stat(self, name) -> Stat:
        return self.stats.get(name) or Stat()

    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS value as {name: {"value", "unit"}}; 0 if unused."""
        out = {}
        for layer, fields in LAYER_METRICS:
            st = self.stat(layer)
            values = {"calls": st.calls, "total_ms": st.total_s * 1e3,
                      "self_ms": st.self_s * 1e3, "peak_mb": st.peak_bytes / _MB}
            for field in fields:
                value = values[field] if field in values else st.counts.get(field, 0)
                out[f"{layer}.{field}"] = {"value": value, "unit": UNITS[field]}
        return out
