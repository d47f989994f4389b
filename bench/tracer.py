"""Span tracer that wraps injop's public functions from outside the library.

Each wrapped call records a span (name, start, end, parent, job).  Spans are
aggregated per (name, parent name) as call count, total time and self time
(span time minus the time covered by child spans).  Raw spans are kept only
for job-level spans and for the outermost call into each layer within a job,
because a randomized lift fans out into hundreds of thousands of nested
calls.  NumPy/SciPy kernels are recorded as ``<layer>.linalg.<fn>`` under the
nearest enclosing injop span.

A wrapped name is patched in every ``injop.*`` module that holds it, so
calls from inside the library are counted as well as calls from outside.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("funcspace", "finite_rank", "certify", "reduction", "nonlin", "atlas",
          "serialize", "cli")

#: Module-level functions wrapped per layer.
FUNCTIONS = {
    "funcspace": ("to_spectral", "from_spectral", "h1_norm"),
    "finite_rank": ("apply_network", "apply_layer", "apply_affine", "apply_finite_rank",
                    "block_matrix", "truncate_kernel"),
    "certify": ("certify_relu_dss", "certify_bijective_activation", "verify_collision"),
    "reduction": ("lift_to_injective", "build_projection_pair", "build_reduction_explicit",
                  "build_reduction_randomized"),
    "nonlin": ("invert_banach", "frechet_derivative", "estimate_contraction"),
    "atlas": ("build_atlas", "global_invert", "local_invert"),
    "serialize": ("read_json", "write_json", "read_grid_function_csv",
                  "write_grid_function_csv", "write_trace_csv", "load_network",
                  "save_network", "load_atlas"),
    "cli": ("main",),
}

#: Methods wrapped on classes: (layer, class, method) -> span name.
METHODS = {
    ("funcspace", "BasisSpec", "eval_modes"): "funcspace.eval_modes",
    ("nonlin", "NonlinearIntegralOperator", "kernel_part"): "nonlin.kernel_part",
    ("nonlin", "NonlinearIntegralOperator", "apply"): "nonlin.apply",
    ("nonlin", "FactorizedFrechet", "__init__"): "nonlin.FactorizedFrechet",
    ("nonlin", "FactorizedFrechet", "solve"): "nonlin.FactorizedFrechet.solve",
}

#: Dense kernels attributed to the enclosing layer: (module, function).
LINALG = (("numpy.linalg", "svd"), ("numpy.linalg", "inv"), ("numpy.linalg", "eigh"),
          ("scipy.linalg", "null_space"), ("scipy.linalg", "expm"),
          ("scipy.linalg", "lu_factor"))


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_eval_modes(tr, args, kwargs, result, error):
    x = args[1] if len(args) > 1 else kwargs["x"]
    n = args[2] if len(args) > 2 else kwargs["n"]
    tr.counters["funcspace.eval_modes.elems"] += int(n) * int(getattr(x, "size", len(x)))


def _count_kernel_part(tr, args, kwargs, result, error):
    op = args[0]
    tr.counters["nonlin.kernel_part.table_elems"] += op.grid.size * op.grid.size


def _count_dss(tr, args, kwargs, result, error):
    if result is not None:
        tr.counters["certify.trials_used"] += result.trials
        tr.counters["certify.relu_searched"] += 1
        tr.counters["certify.witnesses"] += result.witness is not None


def _count_randomized(tr, args, kwargs, result, error):
    if result is not None:
        tr.counters["reduction.randomized_attempts"] += result.meta["attempt"] + 1
    elif error is not None:
        tr.counters["reduction.randomized_attempts"] += kwargs.get("max_retries", 8)


def _trace_of(result, error):
    if result is not None:
        return result[1]
    return getattr(error, "trace", None)


def _count_banach(tr, args, kwargs, result, error):
    trace = _trace_of(result, error)
    if trace is not None:
        tr.counters["nonlin.banach_iters"] += trace.iterations


def _count_local(tr, args, kwargs, result, error):
    trace = _trace_of(result, error)
    if trace is not None:
        tr.counters["atlas.newton_iters"] += trace.iterations
    if type(error).__name__ == "OutOfBasinError":
        tr.counters["atlas.out_of_basin"] += 1


def _count_global(tr, args, kwargs, result, error):
    trace = _trace_of(result, error)
    tr.counters["atlas.global_calls"] += 1
    if trace is not None and trace.meta.get("fallback"):
        tr.counters["atlas.fallbacks"] += 1


def _count_written(tr, args, kwargs, result, error):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if error is None and path is not None:
        tr.counters["serialize.bytes_written"] += _file_bytes(path)


HOOKS = {
    "funcspace.eval_modes": _count_eval_modes,
    "nonlin.kernel_part": _count_kernel_part,
    "certify.certify_relu_dss": _count_dss,
    "reduction.build_reduction_randomized": _count_randomized,
    "nonlin.invert_banach": _count_banach,
    "atlas.local_invert": _count_local,
    "atlas.global_invert": _count_global,
    "serialize.write_json": _count_written,
    "serialize.write_grid_function_csv": _count_written,
    "serialize.write_trace_csv": _count_written,
}


class Tracer:
    """In-memory span recorder; patches are applied by :meth:`install`."""

    def __init__(self):
        self.stack = []  # open spans: [name, layer, start, child_time, span_id]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.counters = Counter()
        self.raw = []  # (span_id, name, start, end, parent_id, job)
        self.job = None
        self.paused = False  # set while the benchmark checks a job's output
        self._next_id = 0
        self._outer_seen = set()
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name, layer):
        self._next_id += 1
        frame = [name, layer, time.perf_counter(), 0.0, self._next_id]
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        name, layer, start, child, span_id = frame
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        row = self.agg[(name, parent[0] if parent else None)]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        outer = (self.job, layer)
        if layer == "job" or (outer not in self._outer_seen
                              and not any(f[1] == layer for f in self.stack)):
            self._outer_seen.add(outer)
            self.raw.append((span_id, name, start, end, parent[4] if parent else None, self.job))

    def span(self, name, layer, fn, *args, **kwargs):
        frame = self._open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def run_job(self, job_id, fn, *args, **kwargs):
        """Run one job under a job-level span."""
        self.job = job_id
        try:
            return self.span("job", "job", fn, *args, **kwargs)
        finally:
            self.job = None

    def _wrap(self, fn, name):
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._open(name, layer)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                tracer._close(frame)
                if hook is not None:
                    hook(tracer, args, kwargs, result, error)

        return wrapper

    def _wrap_linalg(self, fn, fname):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if tracer.paused or not stack or stack[-1][1] not in LAYERS:
                return fn(*args, **kwargs)
            layer = stack[-1][1]
            return tracer.span(f"{layer}.linalg.{fname}", layer, fn, *args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, callers=()):
        """Wrap every traced name wherever an injop module, or one of the
        ``callers`` modules, looks it up."""
        import importlib

        mods = [importlib.import_module(f"injop.{layer}") for layer in LAYERS]
        holders = mods + [importlib.import_module("injop"), *callers]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"injop.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(original, f"{layer}.{fname}")
                for mod in holders:
                    if mod.__dict__.get(fname) is original:
                        self._patch(mod, fname, wrapped)
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules[f"injop.{layer}"], cls_name)
            self._patch(cls, meth, self._wrap(cls.__dict__[meth], name))
        for mod_name, fname in LINALG:
            mod = importlib.import_module(mod_name)
            self._patch(mod, fname, self._wrap_linalg(getattr(mod, fname), fname))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def snapshot(self):
        """Plain-data copy of the aggregates and counters."""
        return {
            "agg": [[name, parent, *row] for (name, parent), row in sorted(
                self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "counters": dict(self.counters),
        }

    def merge(self, snap, job=None):
        """Fold a snapshot taken in another process into this tracer."""
        for name, parent, calls, total, self_s in snap["agg"]:
            row = self.agg[(name, parent)]
            row[0] += calls
            row[1] += total
            row[2] += self_s
        self.counters.update(snap["counters"])
        for span in snap.get("raw", []):
            self.raw.append(tuple(span[:5]) + (job,))


def per_name(snap):
    """Sum a snapshot's aggregate rows over parents: name -> [calls, self_s]."""
    out = defaultdict(lambda: [0, 0.0])
    for name, _parent, calls, _total, self_s in snap["agg"]:
        out[name][0] += calls
        out[name][1] += self_s
    return out
