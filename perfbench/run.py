"""primelab benchmark: run one workload for one seed, check every output
and print the metrics.

    python3 perfbench/run.py --workload ap-sieve --seed 1 --seconds 50 \
        --trace 0

Run from the root of a primelab checkout (the directory holding
`src/primelab`).  Each workload process is a fresh `workload.py` that
sets up and then runs the workload's seeded operation list closed-loop
with one client.  ap-sieve runs the list once per process, because its
first pass is the cold one; processes follow one another until the next
would end past `--seconds`, and at least one runs.  warm-queries runs
one process, which repeats the list until `--seconds` are spent.  Set-up is
timed from process start to "ready" and sampled at least
`plan.SETUP_SAMPLES` times (five by default); the extra samples come
from processes stopped once ready.

With `--trace 0` the last line carries the end-to-end metrics.  An
operation's latency is its fastest repetition (over processes and
rounds); wall_s is the sum of these latencies, op_p50_ms and op_tail_ms
are quantiles of them, setup_s and peak_rss_mb are medians over
processes.  With `--trace 1` every process is traced; the last line
carries the per-layer metrics (medians over processes) and
trace.overhead_frac, the share of wall time the wrappers added, which
each traced process estimates from a calibrated cost per wrapper call.

Outputs are checked against the independent oracles in `oracles.py`
after the workload processes have exited, so neither the oracles' time
nor their memory is measured.  The first process's outputs are checked
against the oracles; every later process and round must reproduce them
exactly.  `fail_frac` = failed / attempted operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import plan  # noqa: E402
import tracing  # noqa: E402

RUN_LIMIT_S = 160.0          # a run must end within 180 s, checks included
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]


class WorkloadError(RuntimeError):
    pass


def find_root():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "primelab",
                                       "__init__.py")):
        raise WorkloadError(f"no src/primelab under {root}: run from the "
                            "root of a primelab checkout")
    return root


def start_workload(root, tmp, workload, seed, traced, inject=None,
                   setup_only=False, limit_s=RUN_LIMIT_S, rounds=1,
                   until=None):
    """Run one workload process, killed after limit_s; returns
    (setup_s, report or None).  The process runs its list `rounds` times,
    then, with `until` (a time.monotonic() reading), again until one more
    round would end later."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PERFBENCH_TMP"] = tmp
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # the same dict and set layout in every process
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), workload,
           str(seed), str(int(traced))]
    cmd += ["--rounds", str(rounds)]
    if until is not None:
        cmd += ["--until", repr(until)]
    if inject:
        cmd += ["--inject-fault", inject]
    err_path = os.path.join(tmp, "workload.err")
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=root, env=env, text=True)
        # the watchdog keeps a stuck process from outliving the run
        timer = threading.Timer(max(limit_s, 1.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            if setup_only:
                proc.kill()
                rest = ""
            else:
                rest = proc.stdout.read()
            proc.stdout.close()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or (not setup_only and code != 0):
        with open(err_path) as fh:
            tail = fh.read()[-2000:]
        raise WorkloadError(f"{workload} process failed (exit {code}):\n"
                            f"{tail}")
    return setup_s, (None if setup_only else json.loads(rest))


def tail_latency(latencies):
    """(value, percentile): the highest percentile that still has ten
    samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def op_latencies(reps):
    """Latency of each operation of the list: its fastest repetition over
    every process and round that ran it.  The host's other tenants only
    ever slow a repetition down, by up to 1.7x for seconds to minutes at a
    time; the fastest repetition moves least when that load changes from
    run to run.  Returns (latencies, repetitions)."""
    n = len(reps[0]["results"])
    runs = [r["latencies_ms"][k:k + n] for r in reps
            for k in range(0, len(r["latencies_ms"]), n)]
    return [min(run[j] for run in runs) for j in range(n)], len(runs)


def where_latencies(per_op, results):
    """Which operation kinds sit at the median and in the tail."""
    order = sorted(range(len(per_op)), key=per_op.__getitem__)
    n = len(order)
    mid = {results[j]["kind"] for j in order[(n - 1) // 2:n // 2 + 1]}
    tail = {}
    for j in order[max(n - 11, 0):]:
        tail[results[j]["kind"]] = tail.get(results[j]["kind"], 0) + 1
    return (f"at the median: {', '.join(sorted(mid))}; the "
            f"{min(n, 11)} slowest: " + ", ".join(
                f"{k} x{c}" for k, c in sorted(tail.items(),
                                                key=lambda kc: -kc[1])))


def check_one(oracle, res):
    """None if one operation's output is right, else why not."""
    if res["error"] is not None:
        return res["error"]
    try:
        return oracles.check(oracle, res["kind"], res["params"],
                             res["value"], res["extra"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"output not checkable: {type(exc).__name__} {exc}"


def check_outputs(root, reps):
    """(attempted, failed, first failure messages)."""
    oracle = oracles.Oracle(root)
    first = reps[0]["results"]
    verdicts = [check_one(oracle, res) for res in first]
    attempted = failed = 0
    messages = []
    for i, rep in enumerate(reps):
        rounds = len(rep["walls_s"])
        later = set(rep["later_round_mismatches"])
        for j, res in enumerate(rep["results"]):
            attempted += rounds
            if res["error"] is not None:
                why = res["error"]
            elif res["value"] != first[j]["value"]:
                why = "differs from the first repetition"
            else:
                why = verdicts[j]
            bad = rounds if why is not None else 0
            if why is None and j in later:
                why = "a later round differs from the first"
                bad = rep["later_round_mismatches"].count(j)
            if why is not None:
                failed += bad
                if len(messages) < 10:
                    messages.append(f"rep {i} op {j} {res['kind']}: {why}")
    return attempted, failed, messages


def run(workload, seed, seconds, trace, inject=None, out=sys.stdout):
    root = find_root()
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        return _run(root, tmp, workload, seed, seconds, trace, inject, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def serial_processes(root, tmp, workload, seed, seconds, trace, inject,
                     start):
    """ap-sieve: one pass per process, processes in turn until the next
    would end after `seconds`."""
    reps, setups = [], []
    while True:
        t = time.perf_counter()
        setup_s, rep = start_workload(root, tmp, workload, seed, trace,
                                      inject,
                                      limit_s=start + RUN_LIMIT_S - t)
        rep["elapsed"] = time.perf_counter() - t
        reps.append(rep)
        setups.append(setup_s)
        longest = max(r["elapsed"] for r in reps)
        spent = time.perf_counter() - start
        if spent + longest > seconds:
            break
        if spent + longest > RUN_LIMIT_S - 40:
            break
    return reps, setups


def repeating_process(root, tmp, workload, seed, seconds, trace, inject,
                      start, setup_samples):
    """warm-queries: the set-up-only samples first, then one process that
    repeats its list until the run's `seconds` are spent, so rounds fill
    the run.  A traced process runs plan.TRACED_ROUNDS rounds instead, so
    the per-layer counts do not depend on the machine's speed."""
    setups = []
    for _ in range(setup_samples - 1 if not trace else 0):
        setups.append(start_workload(
            root, tmp, workload, seed, False, setup_only=True,
            limit_s=start + RUN_LIMIT_S - time.perf_counter())[0])
    setup_s, rep = start_workload(
        root, tmp, workload, seed, trace, inject,
        limit_s=start + RUN_LIMIT_S - time.perf_counter(),
        rounds=plan.TRACED_ROUNDS if trace else 1,
        until=None if trace else
        time.monotonic() + start + seconds - time.perf_counter())
    return [rep], setups + [setup_s]


def _run(root, tmp, workload, seed, seconds, trace, inject, out):
    start = time.perf_counter()
    setup_samples = plan.SETUP_SAMPLES.get(workload, 5)
    if workload in plan.REPEATING:
        reps, setups = repeating_process(root, tmp, workload, seed, seconds,
                                         trace, inject, start, setup_samples)
    else:
        reps, setups = serial_processes(root, tmp, workload, seed, seconds,
                                        trace, inject, start)
    if not trace:
        while len(setups) < setup_samples:
            setups.append(start_workload(
                root, tmp, workload, seed, False, setup_only=True,
                limit_s=start + RUN_LIMIT_S - time.perf_counter())[0])

    attempted, failed, messages = check_outputs(root, reps)
    metrics = {}
    lines = [f"workload {workload} seed {seed}: {len(reps)} "
             f"{'traced ' if trace else ''}processes, each running "
             f"{len(reps[0]['results'])} operations "
             f"{len(reps[0]['walls_s'])} time(s)"]
    if not trace:
        per_op, repeats = op_latencies(reps)
        tail, pct = tail_latency(per_op)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_op) / 1e3,
            "op_p50_ms": statistics.median(per_op),
            "op_tail_ms": tail,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        lines.append(
            f"wall_s is the sum and op_p50_ms and op_tail_ms (p{pct:.2f}) "
            f"are quantiles of the latencies of {len(per_op)} operations, "
            f"each the fastest of its {repeats} repetitions; setup_s is the "
            f"median of {len(setups)} set-ups")
        lines.append(where_latencies(per_op, reps[0]["results"]))
    else:
        names = tracing.metric_names()
        missing = set(reps[0]["missing"])
        for name in names[:-1]:
            layer = name.rsplit(".", 1)[0]
            if layer in missing:
                continue
            metrics[name] = {
                "value": statistics.median(r["layers"][name] for r in reps),
                "unit": tracing.metric_unit(name)}
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(r["overhead_frac"] for r in reps),
            "unit": "frac"}
        for layer in sorted(missing):
            lines.append(f"MISSING {layer}: not in this primelab; its "
                         "metrics are left out")
        for module, func, _, moves, where in tracing.LAYERS:
            lines.append(f"layer {module}.{func} should move {moves} on "
                         f"{where}")
    lines.append(f"fail_frac {failed / attempted:.6g} ({failed} of "
                 f"{attempted} operations)")
    lines += [f"FAILED {m}" for m in messages]
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print("\n".join(lines), file=out)
    print(json.dumps(result), file=out, flush=True)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except WorkloadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
