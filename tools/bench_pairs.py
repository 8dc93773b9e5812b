"""Run the benchmark on two commits in alternating pairs and write the
results as a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --out FILE \
        [--claim TEXT] [--work DIR]

Each commit is exported with `git archive` into its own directory in a
temporary directory (under --work if given, removed at the end), and
each run is
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`
started from the root of that export, so each side runs its own `src/`
and its own `perfbench/`; the workloads W and the run length N are those
`BENCHMARK.json` declares.  SEEDS fixes the pairs: 10 per workload on
seed 1, then 3 on seed 2, the least a claimed gain is judged on.  Odd
pairs run the parent first, even pairs the change first.  The file is
rewritten after every run, so an interrupted session keeps the runs it
finished.

The file holds the commits, the host, the pairing, every run's last
line and its "at the median: ...; the 11 slowest: ..." line (which
operation kinds set op_p50_ms and op_tail_ms), and per workload and
seed: the failed and attempted operations and, for each end-to-end
metric, the median and quartiles (numpy's linear percentiles 25 and 75)
of each side, the number of pairs in which the change read lower, and
the ratio of the medians.  Each such metric is then ruled on against
the bound `BENCHMARK.json` gives it: `within_bound` if the change's
median is at most the parent's times (1 + bound), and `unresolved` if
the parent's interquartile spread is wider than the bound times its
median, unless every run of the change read lower than every run of
the parent.  A --claim that names one workload and one end-to-end
metric of `BENCHMARK.json` ("ap-sieve op_tail_ms") is ruled on per
seed of that workload: `claim_met` if the change read lower in at
least 9 of 10 pairs (all 3 of 3) and its median lies below the
parent's by more than the parent's interquartile spread.  Every
end-to-end metric is lower-better; another is refused before any run.
Nothing under `perfbench/` and nothing in `BENCHMARK.json` is changed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# (seed, pairs per workload), run in this order
SEEDS = ((1, 10), (2, 3))


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def export(commit: str, dest: str) -> str:
    """`git archive` of commit, unpacked into dest."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, check=True, capture_output=True)
    with tempfile.TemporaryFile() as fh:
        fh.write(archive.stdout)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")
    return dest


def host() -> str:
    import sympy
    return (f"{os.cpu_count()} cores, {platform.system()}, Python "
            f"{platform.python_version()}, numpy {np.__version__}, "
            f"sympy {sympy.__version__}")


def run_once(checkout: str, workload: str, seed: int, seconds: float):
    """The last line of one benchmark run, as a dict, and its line naming
    the operation kinds at the median and in the tail."""
    lines = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, text=True,
        capture_output=True).stdout.strip().splitlines()
    where = next((ln for ln in lines if ln.startswith("at the median:")),
                 None)
    return json.loads(lines[-1]), where


def claimed(claim: str, workloads, metrics):
    """(workload, metric) if the claim names exactly one of each, else
    None: a claim in other words is kept as text and not ruled on."""
    words = claim.split()
    named = ([w for w in workloads if w in words],
             [m for m in metrics if m in words])
    return (named[0][0], named[1][0]) if all(len(n) == 1 for n in named) \
        else None


def claim_met(metric: dict, pairs: int) -> bool:
    """The change read lower in at least 9 pairs in 10 (all 3 of 3), and
    its median lies below the parent's by more than the parent's
    interquartile spread."""
    low, high = metric["parent_quartiles"]
    return (metric["change_lower_in_pairs"] >= math.ceil(0.9 * pairs)
            and metric["parent_median"] - metric["change_median"]
            > high - low)


def summarize(runs, workload: str, seed: int, bounds: dict,
              claim=None) -> dict:
    """Medians, quartiles and per-pair wins of one workload and seed, each
    metric's ruling against its bound in bounds, and `claim_met` if claim
    is (workload, metric) of this workload."""
    mine = [r for r in runs if (r["workload"], r["seed"]) == (workload,
                                                              seed)]
    by_pair = {}
    for r in mine:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["last_line"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    out = {"workload": workload, "seed": seed, "pairs": len(pairs),
           "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
           "attempted": {s: sum(p[s]["attempted"] for p in pairs)
                         for s in SIDES},
           "correct": all(p[s]["correct"] for p in pairs for s in SIDES),
           "metrics": {}}
    if not pairs:
        return out
    for name in pairs[0]["parent"]["metrics"]:
        values = {s: np.array([p[s]["metrics"][name]["value"]
                               for p in pairs]) for s in SIDES}
        medians = {s: float(np.median(values[s])) for s in SIDES}
        low, high = np.percentile(values["parent"], [25, 75]).tolist()
        bound = bounds[name]
        out["metrics"][name] = {
            "parent_median": medians["parent"],
            "parent_quartiles": [low, high],
            "change_median": medians["change"],
            "change_quartiles": np.percentile(values["change"],
                                              [25, 75]).tolist(),
            "change_lower_in_pairs": int(np.sum(values["change"]
                                                < values["parent"])),
            "change_over_parent": medians["change"] / medians["parent"],
            "bound": bound,
            "within_bound": medians["change"]
                            <= medians["parent"] * (1 + bound),
            "unresolved": bool(high - low > bound * medians["parent"]
                               and values["change"].max()
                               >= values["parent"].min()),
        }
    if claim is not None and claim[0] == workload:
        out["claim_met"] = claim_met(out["metrics"][claim[1]], len(pairs))
    return out


def schedule(workloads):
    """(seed, workload, pair, side) of every run, in order."""
    for seed, n in SEEDS:
        for workload in workloads:
            for pair in range(1, n + 1):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    yield seed, workload, pair, side


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--claim", default="")
    ap.add_argument("--work", default=None,
                    help="where the temporary directory of the two "
                         "exports is made")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    if any(m["better"] != "lower" for m in bench["end_to_end"]):
        raise SystemExit("bench_pairs rules only on lower-better metrics")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    claim = claimed(args.claim, workloads, bounds)
    seconds = bench["run_seconds"]
    commits = {"parent": git("rev-parse", args.parent),
               "change": git("rev-parse", args.change)}
    plan = ", then ".join(f"seed {seed} {n} pairs per workload"
                          for seed, n in SEEDS)
    doc = {
        "benchmark": f"python3 perfbench/run.py --workload <workload> "
                     f"--seed <seed> --seconds {seconds:g} --trace 0, "
                     f"each run in its own checkout made with git archive",
        "commits": commits,
        "host": host(),
        "pairing": "alternating: odd pairs run the parent first, even "
                   "pairs the change first",
        "claim": args.claim,
        "rounds": f"One round: {plan}. Quartiles are numpy's linear "
                  f"percentiles 25 and 75.",
        "summary": [],
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-",
                                     dir=args.work) as work:
        checkouts = {s: export(commits[s], os.path.join(work, s))
                     for s in SIDES}
        for seed, workload, pair, side in schedule(workloads):
            line, where = run_once(checkouts[side], workload, seed,
                                   seconds)
            doc["runs"].append({
                "round": 1, "workload": workload, "seed": seed,
                "pair": pair, "side": side, "commit": commits[side],
                "where": where, "last_line": line})
            doc["summary"] = [summarize(doc["runs"], w, s, bounds, claim)
                              for s, _ in SEEDS for w in workloads]
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            print(f"{workload} seed {seed} pair {pair} {side}: "
                  f"{json.dumps(line['metrics'])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
