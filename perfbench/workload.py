"""One workload process: set up, run the seeded operation list closed-loop
(one client, each call issued after the previous one returned) one or
more rounds, then print what happened as one JSON line.
Outputs of later rounds must equal those of the first.

    python3 perfbench/workload.py <workload> <seed> <traced 0|1> \
        [--rounds N] [--until DEADLINE] [--inject-fault MODULE.FUNC]

The list runs N times (once by default) and then, with --until, again
until one more round would end after DEADLINE, a `time.monotonic()`
reading.

`src/` of the checkout must be on PYTHONPATH; `run.py` starts this
process and reads "ready" from its stdout when set-up is done.  Output
checks are not made here: `run.py` makes them after this process has
reported its peak memory.
"""

from __future__ import annotations

import argparse
import array
import io
import json
import os
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import plan  # noqa: E402  (the benchmark's own module)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_fields(r):
    return {"experiment": r.experiment, "params": r.params,
            "metric": r.metric, "bound": r.bound, "ratio": r.ratio,
            "verdict": r.verdict}


def _report_summary(r):
    return {"metric": float(r.metric),
            "bound": None if r.bound is None else float(r.bound),
            "ratio": None if r.ratio is None else float(r.ratio),
            "verdict": r.verdict}


class Session:
    """State the set-up builds and the operations read: modules looked
    up at call time (so tracing wrappers are seen), prebuilt counters,
    and the last reports for `emit`."""

    def __init__(self, workload, tmpdir):
        import primelab
        from primelab import cli, explicit, intervals, numfield, report, \
            sieve, zeros
        self.pl = primelab
        self.cli, self.explicit, self.intervals = cli, explicit, intervals
        self.numfield, self.report, self.sieve = numfield, report, sieve
        self.zeros = zeros
        self.workload = workload
        self.tmpdir = tmpdir
        self.counters = {}
        self.recent = []

    # -- set-up ---------------------------------------------------------
    def setup(self):
        self.numfield.preset("Q")                    # loads all presets
        self.tables = {name: self.zeros.field_table(name)
                       for name in plan.ZERO_FIELDS}
        self.tables.update({c: self.zeros.component_table(c)
                            for c in plan.COMPONENTS})
        if self.workload != "warm-queries":
            return
        for name in plan.WARM_FIELDS:
            fld = self.numfield.preset(name)
            # the package caches events per power-of-two norm bound, so
            # touch each bound once up to the warm bound
            bound = 1024
            while bound <= plan.WARM_FIELD_BOUND:
                self.numfield.pi_K(fld, bound)
                bound *= 2
        for name in ("Q(i)", "Q(sqrt5)"):
            self.counters[name] = self.pl.field_source(
                self.numfield.preset(name), plan.WARM_FIELD_BOUND).psi
        self.counters["Q"] = self.pl.progression_source(
            self.sieve.ResidueClass(1, 0), plan.WARM_Q_BOUND).psi

    # -- operations -----------------------------------------------------
    def field(self, name):
        return self.numfield.preset(name)

    def spec(self, name, T):
        degree, disc, _ = plan.PRESETS[name]
        return self.explicit.TruncationSpec(T, self.tables[name], degree,
                                            disc)

    def keep(self, reports):
        self.recent = (self.recent + list(reports))[-20:]

    def run(self, kind, p):
        """Execute one operation; returns (summary, extra) where summary
        is the checked result and extra holds what only the check needs
        (recorded outside the timed region)."""
        it, nf, ex = self.intervals, self.numfield, self.explicit
        if kind == "pi_K":
            return nf.pi_K(self.field(p["field"]), p["x"]), None
        if kind == "psi_K":
            return nf.psi_K(self.field(p["field"]), p["x"]), None
        if kind == "delta_K":
            return it.delta_K(self.field(p["field"]), p["x"], p["h"]), None
        if kind == "bt_check_field":
            r = it.bt_check_field(self.field(p["field"]), p["x"], p["h"])
            self.keep([r])
            return _report_summary(r), None
        if kind == "bt_check_ap":
            r = it.bt_check_ap(p["x"], p["h"],
                               self.sieve.ResidueClass(p["q"], p["a"]))
            return _report_summary(r), None
        if kind == "cramer_ap":
            r = it.cramer_window_scan(p["x_lo"], p["x_hi"], p["c1"],
                                      self.sieve.ResidueClass(p["q"], p["a"]))
            self.keep([r.summary_report()])
            return {"verdict": r.verdict, "windows": len(r.windows),
                    "min_count": min(w[2] for w in r.windows),
                    "c2": r.c2_empirical}, None
        if kind == "psi_ap":
            return self.sieve.psi_ap(
                p["x"], self.sieve.ResidueClass(p["q"], p["a"])), None
        if kind == "pi_ap":
            return self.sieve.pi_ap(
                p["x"], self.sieve.ResidueClass(p["q"], p["a"])), None
        if kind == "meansq_ratio":
            r = it.meansq_ratio(p["X"], p["h"],
                                self.sieve.ResidueClass(p["q"], p["a"]))
            return _report_summary(r), None
        if kind == "mean_square":
            return it.mean_square(p["X"], p["h"],
                                  self.field(p["field"])), None
        if kind == "inertia_scan":
            r = it.inertia_scan(p["X"], p["h"], self.field(p["field"]))
            return {"threshold": r.threshold,
                    "intervals": [list(iv) for iv in
                                  r.exceedance_intervals]}, None
        if kind == "residual_scan":
            r = ex.residual_scan(self.counters[p["field"]],
                                 self.spec(p["field"], p["T"]), p["xs"])
            return [float(v) for v in r.residuals], None
        if kind == "smoothed_sum":
            return ex.smoothed_sum(p["x"], p["h"],
                                   self.counters[p["field"]]), None
        if kind == "smoothed_prediction":
            return ex.smoothed_prediction(
                p["x"], p["h"], self.spec(p["field"], p["T"])), None
        if kind == "unweighted_sandwich":
            return list(ex.unweighted_sandwich(
                p["x"], p["h"], p["eps"], self.counters[p["field"]])), None
        if kind == "count_zeros":
            return self.zeros.count_zeros(self.tables[p["table"]],
                                          p["T"]), None
        if kind == "predicted_count":
            return self.zeros.predicted_count(p["n"], p["d"], p["T"]), None
        if kind == "emit":
            reports = list(self.recent)
            sink = io.StringIO()
            self.report.emit(reports, p["format"], sink)
            return sink.getvalue(), reports
        if kind == "cli":
            path = os.path.join(self.tmpdir, "cli.out")
            code = self.cli.main(p["argv"] + ["--output", path])
            with open(path) as fh:
                return {"exit": code, "text": fh.read()}, None
        raise ValueError(f"unknown operation {kind!r}")


def inject_fault(name):
    """Make MODULE.FUNC return a wrong answer everywhere it is bound, to
    prove that the checks catch it."""
    import importlib
    import tracing
    module, func = name.rsplit(".", 1)
    raw = getattr(importlib.import_module(f"primelab.{module}"), func)

    def wrong(*args, **kwargs):
        return raw(*args, **kwargs) + 1

    tracing.rebind(raw, wrong)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=plan.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("traced", type=int, choices=(0, 1))
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--until", type=float, default=None)
    ap.add_argument("--inject-fault", default=None)
    args = ap.parse_args(argv)
    ops = plan.PLANS[args.workload](args.seed)

    # -- set-up: import, first preset(), zero tables, warm pre-builds ----
    import primelab  # noqa: F401
    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    if args.inject_fault:
        inject_fault(args.inject_fault)
    tmpdir = tempfile.mkdtemp(prefix="cli-", dir=os.environ["PERFBENCH_TMP"])
    session = Session(args.workload, tmpdir)
    session.setup()
    print("ready", flush=True)

    # -- timed phase: the list, `rounds` times or until the deadline ----
    clock = time.perf_counter
    if tracer is not None:
        tracer.timed_from = clock()
    # one round's outputs are compared with the first's as soon as it
    # ends and then dropped, so memory does not grow with the rounds
    latencies, walls = array.array("d"), []
    first, mismatches = None, []
    while len(walls) < args.rounds or (
            args.until is not None
            and time.monotonic() + walls[-1] <= args.until):
        session.recent = []
        outputs = []
        t0 = clock()
        for kind, params in ops:
            start = clock()
            try:
                value, extra = session.run(kind, params)
                error = None
            except Exception as exc:  # every raise is a failed operation
                value, extra = None, None
                error = f"{type(exc).__name__}: {exc}"
            latencies.append((clock() - start) * 1e3)
            outputs.append((value, extra, error))
        walls.append(clock() - t0)
        if first is None:
            first = outputs
        else:
            mismatches += [j for j, (value, _, error) in enumerate(outputs)
                           if error is not None or value != first[j][0]]
    peak = _peak_rss_mb()

    # -- outside the timed region ----------------------------------------
    for path in os.listdir(tmpdir):
        os.remove(os.path.join(tmpdir, path))
    os.rmdir(tmpdir)
    out = {
        "walls_s": walls,
        "latencies_ms": latencies.tolist(),
        "peak_rss_mb": peak,
        "results": [{"kind": k, "params": p, "value": v,
                     "extra": (None if x is None
                               else [_report_fields(r) for r in x]),
                     "error": e}
                    for (k, p), (v, x, e) in zip(ops, first)],
        "later_round_mismatches": mismatches,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["overhead_frac"] = tracer.overhead_frac(sum(walls))
        out["missing"] = tracer.missing
    sys.stdout.write(json.dumps(out, default=_jsonable) + "\n")
    return 0


def _jsonable(value):
    if hasattr(value, "item"):          # numpy scalar
        return value.item()
    raise TypeError(f"cannot serialise {type(value).__name__}")


if __name__ == "__main__":
    sys.exit(main())
