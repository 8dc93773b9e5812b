"""Self-test of the benchmark's own checks and printout.

    python3 perfbench/selftest.py        # from the checkout root, ~5 min

It proves that:
  * BENCHMARK.json names exactly the metrics run.py and tracing.py emit;
  * every operation kind's check passes the real output and rejects a
    wrong one (one output of each kind perturbed, on all workloads);
  * an injected wrong answer inside primelab makes fail_frac > 0;
  * a plain run prints every end-to-end metric with its unit, a traced
    run every per-layer metric, and warm-queries builds no field events
    in its timed phase;
  * a layer that no longer exists is reported missing, not a crash;
  * run.py fails, printing no result, where there is no primelab.
"""

from __future__ import annotations

import copy
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def perturb(kind, value):
    """A wrong version of one operation's output."""
    wrong = copy.deepcopy(value)
    if kind in ("pi_K", "pi_ap", "count_zeros"):
        return wrong + 1
    if isinstance(wrong, float):
        return wrong + max(1.0, abs(wrong) * 1e-6)
    if kind in ("bt_check_field", "bt_check_ap"):
        wrong["metric"] += 1
    elif kind == "meansq_ratio":
        wrong["metric"] *= 1.001
    elif kind == "cramer_ap":
        wrong["verdict"] = "fail"
    elif kind == "inertia_scan":
        # one exceedance interval lost (or a made-up one if none)
        wrong["intervals"] = (wrong["intervals"][:-1] if wrong["intervals"]
                              else [[1e3, 1e3 + 1.0]])
    elif kind == "residual_scan":
        wrong[0] += 1.0
    elif kind == "unweighted_sandwich":
        wrong = [wrong[1] + 1.0, wrong[1] + 2.0]
    elif kind == "emit":
        wrong += "x\n"
    elif kind == "cli":
        wrong["exit"] = 1
    else:
        raise ValueError(f"no perturbation for {kind}")
    return wrong


def test_manifest(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]]
           == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in bench["per_layer"]]
           == [(n, tracing.metric_unit(n)) for n in tracing.metric_names()],
           "BENCHMARK.json per_layer matches tracing.py")
    expect([w["name"] for w in bench["workloads"]] == list(plan.WORKLOADS),
           "BENCHMARK.json workloads match plan.py")


def test_checks(root, tmp):
    oracle = oracles.Oracle(root)
    seen = set()
    for workload in plan.WORKLOADS:
        _, rep = run.start_workload(root, tmp, workload, 7, False)
        rejected = missed = 0
        for res in rep["results"]:
            if run.check_one(oracle, res) is not None:
                rejected += 1
            wrong = dict(res, value=perturb(res["kind"], res["value"]))
            if run.check_one(oracle, wrong) is None:
                missed += 1
                print(f"  not caught: {res['kind']} {res['params']}")
            seen.add(res["kind"])
        expect(rejected == 0, f"{workload}: all real outputs pass their check")
        expect(missed == 0, f"{workload}: every perturbed output is caught")
    expect(seen == set(oracles.CHECKS), "every check kind was exercised")


def test_runs(root):
    out = io.StringIO()
    res = run.run("warm-queries", 3, 1, 0, inject="numfield.pi_K", out=out)
    expect(res["failed"] > 0 and not res["correct"]
           and "fail_frac 0 " not in out.getvalue(),
           "injected wrong pi_K makes fail_frac > 0")
    for workload in plan.WORKLOADS:
        res = run.run(workload, 3, 1, 0, out=io.StringIO())
        expect(res["correct"] and res["failed"] == 0,
               f"{workload}: fail_frac is 0")
        expect([(k, v["unit"]) for k, v in res["metrics"].items()]
               == run.END_TO_END,
               f"{workload}: every end-to-end metric printed with its unit")
        expect(all(v["value"] > 0 for v in res["metrics"].values()),
               f"{workload}: end-to-end metrics are positive")
    res = run.run("warm-queries", 3, 1, 1, out=io.StringIO())
    expect([(k, v["unit"]) for k, v in res["metrics"].items()]
           == [(n, tracing.metric_unit(n)) for n in tracing.metric_names()],
           "traced run prints every per-layer metric with its unit")
    m = res["metrics"]
    expect(m["numfield.ideal_event_arrays.timed_builds"]["value"] == 0
           and m["numfield.ideal_event_arrays.builds"]["value"] > 0,
           "warm-queries: field builds in set-up only")


def test_missing_layer(root):
    sys.path.insert(0, os.path.join(root, "src"))
    saved = list(tracing.LAYERS)
    tracing.LAYERS.append(("sieve", "removed_function", None, "-", "-"))
    tracing.LAYERS.append(("no_such_module", "f", None, "-", "-"))
    try:
        tracer = tracing.Tracer()
        tracer.install()
        import primelab
        primelab.sieve.sieve_primes(1, 100)
        metrics = tracer.metrics()
    finally:
        tracing.LAYERS[:] = saved
    expect(set(tracer.missing) == {"sieve.removed_function",
                                   "no_such_module.f"}
           and metrics["sieve.sieve_primes.calls"] == 1
           and not any(k.startswith("sieve.removed") for k in metrics),
           "a removed layer is reported missing, not a crash")


def test_bare_directory(root):
    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=root)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ap-sieve",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without primelab run.py fails and prints no result")


def main():
    root = run.find_root()
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        test_manifest(root)
        test_bare_directory(root)
        test_missing_layer(root)
        test_checks(root, tmp)
        test_runs(root)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
