"""Span tracing of primelab's public functions, installed from outside
the package.

`install()` replaces each layer function by a wrapper in every loaded
primelab module namespace that binds it (a module that did
`from .sieve import sieve_primes` holds its own reference).  Each call
records a span (name, start, end, parent) plus an item count; self time
is a span's duration minus the time covered by its direct children.

A layer whose module or function no longer exists is reported as
missing, never as a crash.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function, item-count name or None, end-to-end metric it should
# move, workload where it should move it).  The item counter reads the
# result (and the arguments) after the call returns.
LAYERS = [
    ("fppoly", "count_roots", None, "setup_s", "warm-queries"),
    ("fppoly", "factor_degree_multiset", None, "setup_s", "warm-queries"),
    ("numfield", "splitting_type", "misses", "setup_s", "warm-queries"),
    ("numfield", "ideal_event_arrays", "events", "setup_s / op_p50_ms",
     "warm-queries"),
    ("numfield", "load_presets", None, "setup_s", "both"),
    ("zeros", "load_zeros", "ordinates", "setup_s", "both"),
    ("sieve", "sieve_primes", "primes", "wall_s, peak_rss_mb", "ap-sieve"),
    ("sieve", "event_arrays", "events", "wall_s, peak_rss_mb", "ap-sieve"),
    ("counters", "StepCounter.from_events", "events",
     "wall_s, peak_rss_mb", "ap-sieve"),
    ("intervals", "cramer_window_scan", "windows", "wall_s / op_tail_ms",
     "ap-sieve / warm-queries"),
    ("intervals", "delta_series", "breakpoints", "op_p50_ms, op_tail_ms",
     "warm-queries"),
    ("intervals", "bt_check_ap", None, "op_p50_ms, op_tail_ms",
     "warm-queries"),
    ("intervals", "bt_check_field", None, "op_p50_ms, op_tail_ms",
     "warm-queries"),
    ("explicit", "residual_scan", None, "op_p50_ms", "warm-queries"),
    ("explicit", "smoothed_sum", None, "op_p50_ms", "warm-queries"),
    ("explicit", "smoothed_prediction", "zeros", "op_p50_ms",
     "warm-queries"),
    ("report", "emit", "rows", "op_p50_ms, op_tail_ms", "warm-queries"),
    ("cli", "main", None, "op_p50_ms, op_tail_ms", "warm-queries"),
]


def _len0(result, args, kwargs):
    return len(result[0])


def _zeros_used(result, args, kwargs):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return len(spec.ordinates())


def _emit_rows(result, args, kwargs):
    reports = args[0] if args else kwargs["reports"]
    return len(reports)


ITEM_COUNTERS = {
    ("zeros", "load_zeros"): lambda r, a, k: len(r),
    ("sieve", "sieve_primes"): lambda r, a, k: len(r),
    ("sieve", "event_arrays"): _len0,
    ("numfield", "ideal_event_arrays"): _len0,
    ("counters", "StepCounter.from_events"): lambda r, a, k: len(r.positions),
    ("intervals", "cramer_window_scan"): lambda r, a, k: len(r.windows),
    ("intervals", "delta_series"): lambda r, a, k: len(r.breakpoints),
    ("explicit", "smoothed_prediction"): _zeros_used,
    ("report", "emit"): _emit_rows,
}

# layers whose cache misses (splitting_type) or builds
# (ideal_event_arrays) are counted: a call that opened child spans did
# the work instead of answering from the package's cache
CACHED = {("numfield", "splitting_type"): "misses",
          ("numfield", "ideal_event_arrays"): "builds"}


def metric_names():
    """Every per-layer metric the traced run reports, in order."""
    names = []
    for module, func, items, _, _ in LAYERS:
        base = f"{module}.{func}"
        names += [f"{base}.calls", f"{base}.self_s"]
        cached = CACHED.get((module, func))
        if cached:
            names.append(f"{base}.{cached}")
        if (module, func) == ("numfield", "ideal_event_arrays"):
            names.append(f"{base}.timed_builds")
        if items and items != cached:
            names.append(f"{base}.{items}")
        if (module, func) == ("report", "emit"):
            names.append(f"{base}.bytes")
    return names + ["trace.overhead_frac"]


def metric_unit(name):
    if name.endswith("self_s"):
        return "s"
    if name == "trace.overhead_frac":
        return "frac"
    return "count"


class Tracer:
    """Keeps spans in memory as tuples (index, name, start, end, parent
    index, items, extra), appended when a call returns.  Tuples of plain
    values leave the garbage collector's tracking, so a quarter million
    spans add little to the traced run."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.opened = 0
        self.missing = []
        self.timed_from = None      # perf_counter at start of timed phase

    def wrap(self, key, fn):
        name = ".".join(key)
        count_items = ITEM_COUNTERS.get(key)
        is_emit = key == ("report", "emit")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.opened
            self.opened += 1
            parent = self.stack[-1]
            self.stack.append(index)
            sink = (args[2] if len(args) > 2 else kwargs.get("sink")) \
                if is_emit else None
            before = _tell(sink)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
            items = extra = 0
            if count_items is not None:
                try:
                    items = count_items(result, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            if is_emit:
                after = _tell(sink)
                if before is not None and after is not None:
                    extra = after - before
            self.spans.append((index, name, start, end, parent, items,
                               extra))
            return result

        return traced

    def install(self):
        """Wrap every layer wherever a primelab module binds it."""
        found = {}
        for module in {layer[0] for layer in LAYERS}:
            try:
                found[module] = importlib.import_module(f"primelab.{module}")
            except ImportError:
                pass
        for module, func, _, _, _ in LAYERS:
            key = (module, func)
            mod = found.get(module)
            if mod is None:
                self.missing.append(".".join(key))
                continue
            owner_name, _, attr = func.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(".".join(key))
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self.wrap(key, raw.__func__)))
                continue
            rebind(raw, self.wrap(key, raw))

    def overhead_frac(self, wall_s, n=20000, repeats=5):
        """Share of the timed phase's wall time the wrappers added: the
        cost of one wrapper call, calibrated on a no-op, times the spans
        opened in the timed phase, over the time left without them.
        Comparing a traced with an untraced process instead cannot
        resolve the ~1% this is, under the machine's drift."""
        probe = Tracer()

        def noop():
            return None

        wrapped = probe.wrap(("calibrate", "noop"), noop)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            probe.spans.clear()
            t0 = clock()
            for _ in range(n):
                noop()
            t1 = clock()
            for _ in range(n):
                wrapped()
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / n)
        costs.sort()
        added = costs[repeats // 2] * sum(
            1 for span in self.spans if span[2] >= self.timed_from)
        return added / (wall_s - added)

    def metrics(self):
        """Per-layer metrics from the recorded spans."""
        child_time = {}             # parent index -> time in children
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out = {}
        for name in metric_names()[:-1]:
            if name.rsplit(".", 1)[0] not in self.missing:
                out[name] = 0.0 if name.endswith("self_s") else 0
        items_of = {f"{m}.{f}": i for m, f, i, _, _ in LAYERS}
        for index, name, start, end, _, nitems, extra in self.spans:
            module, _, func = name.partition(".")
            items = items_of[name]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time.get(index, 0.0)
            cached = CACHED.get((module, func))
            if cached and index in child_time:
                out[f"{name}.{cached}"] += 1
                if (name == "numfield.ideal_event_arrays"
                        and self.timed_from is not None
                        and start >= self.timed_from):
                    out[f"{name}.timed_builds"] += 1
            if items and items != cached:
                out[f"{name}.{items}"] += nitems
            if name == "report.emit":
                out[f"{name}.bytes"] += extra
        return out


def rebind(raw, replacement):
    """Replace every binding of `raw` in every loaded primelab module
    namespace by `replacement` (a module that did `from .sieve import
    sieve_primes` holds its own reference)."""
    for n, m in list(sys.modules.items()):
        if m is None or not (n == "primelab" or n.startswith("primelab.")):
            continue
        for name, value in list(vars(m).items()):
            if value is raw:
                setattr(m, name, replacement)


def _tell(sink):
    try:
        return sink.tell() if sink is not None else None
    except (AttributeError, OSError, ValueError):
        return None
