"""Seeded operation lists for the three benchmark workloads.

An operation is a pair (kind, params) with JSON-able params.  The same
seed always gives the same list; `workload.py` executes it and the
oracles in `oracles.py` check what it returned.  This module imports
nothing from primelab, so the plan is fixed before the package loads.
"""

from __future__ import annotations

import math
import random

# Shipped presets as the benchmark knows them, independently of the
# package: degree, |d_K| and the data each oracle needs.
#   ("rational",)        Q
#   ("quadratic", d)     signed fundamental discriminant d
#   ("cyclotomic", m)    Q(zeta_m)
PRESETS = {
    "Q": (1, 1, ("rational",)),
    "Q(i)": (2, 4, ("quadratic", -4)),
    "Q(sqrt-3)": (2, 3, ("quadratic", -3)),
    "Q(sqrt5)": (2, 5, ("quadratic", 5)),
    "Q(sqrt2)": (2, 8, ("quadratic", 8)),
    "Q(sqrt-2)": (2, 8, ("quadratic", -8)),
    "cyclo5": (4, 125, ("cyclotomic", 5)),
    "cyclo7": (6, 16807, ("cyclotomic", 7)),
    "cyclo8": (4, 256, ("cyclotomic", 8)),
    "cyclo12": (4, 144, ("cyclotomic", 12)),
}

# Fields with shipped zero tables and each table's certified height.
ZERO_FIELDS = {"Q": 2500.0, "Q(i)": 600.0, "Q(sqrt5)": 600.0}
COMPONENTS = {"zeta": 2500.0, "chi4": 600.0, "chi5": 600.0}

C1 = 4.0                      # Cramer window constant (the CLI default)
FIELD_ORACLE_BOUND = 2**17    # the oracle builds field events this far
AP_X_RANGE = (1e6, 1e8)
AP_MEANSQ_MAX = 1e7
AP_SCAN_RANGE = (1e3, 1e7)
WARM_FIELDS = ("Q", "Q(i)", "Q(sqrt5)", "cyclo8")
WARM_FIELD_BOUND = 2**15      # set-up builds every field to this norm
WARM_Q_BOUND = 2**20          # set-up builds the Q counter to this bound

# The warm-queries list makes as many calls of each kind as the repo's
# own traffic does: the calls the Tier-1 tests make directly, plus the
# README's CLI examples, as `traffic.py` counted them at the seed commit
# (132 tests).  Calls per subcommand of `cli.main`:
CLI_TRAFFIC = {          # tests + README examples
    "sieve": 2 + 1, "ap-scan": 1 + 1, "field-scan": 0 + 1,
    "meansq": 4 + 1, "inertia": 1 + 0, "bt": 5 + 1, "explicit": 1 + 1,
    "smoothed": 1 + 1, "zeros": 5 + 2,
}
TRAFFIC = {
    "pi_K": 7, "psi_K": 14, "delta_K": 301, "bt_check_field": 152,
    "bt_check_ap": 4452, "mean_square": 32, "inertia_scan": 9,
    "residual_scan": 5, "smoothed_sum": 31, "smoothed_prediction": 6,
    "unweighted_sandwich": 255, "count_zeros": 810, "predicted_count": 803,
    "emit": 3, "cli": sum(CLI_TRAFFIC.values()),
}

WORKLOADS = ("ap-sieve", "warm-queries")
# warm-queries runs one process that repeats its list until the run's
# time is spent: one long block of rounds varied less from run to run, on
# a host whose speed swings by up to 1.7x within seconds, than two short
# ones.  ap-sieve runs its list once per process, because its first pass
# is the cold one
REPEATING = ("warm-queries",)
# a traced warm-queries process runs its list this many times, so its
# per-layer counts repeat exactly from run to run
TRACED_ROUNDS = 6
# set-ups timed per run (five by default); a warm-queries set-up takes
# about 2.5 s, so it takes fewer and leaves the time to the rounds
SETUP_SAMPLES = {"warm-queries": 3}


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def strata(rng, n, jitter=1.0):
    """n points in [0, 1), one in each of n equal strata, drawn uniformly
    from the middle `jitter` share of its stratum."""
    return [(i + 0.5 + jitter * (rng.random() - 0.5)) / n for i in range(n)]


def stratified_log(rng, lo, hi, n, jitter=1.0):
    """n points in [lo, hi], stratified in log.  With a small jitter the
    cost of a list whose top points dominate it varies little from seed
    to seed."""
    return [lo * (hi / lo) ** t for t in strata(rng, n, jitter)]


def field_window(x, degree, disc):
    """Cramer window length for a field (the theorem's window law)."""
    return C1 * (degree * math.log(x) + math.log(disc)) * math.sqrt(x)


def scan_top(window, bound, cap):
    """Largest x <= cap whose scan span x + 1.01 * window(x) stays within
    bound."""
    lo, hi = 1e3, cap
    if hi + 1.01 * window(hi) <= bound:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid + 1.01 * window(mid) <= bound:
            lo = mid
        else:
            hi = mid
    return lo


def unit_class(rng, q_max=30, q_min=1):
    return unit_residue(rng, rng.randint(q_min, q_max))


def unit_residue(rng, q):
    """(q, a) with a seeded unit a mod q."""
    return q, rng.choice([a for a in range(q) if math.gcd(a, q) == 1])


def moduli(n):
    """n moduli <= 30 in a fixed order: the heavy calls of ap-sieve cost
    about the same for every seed; seeds vary only the residues."""
    return [1 + (7 * i) % 30 for i in range(n)]


def balanced(rng, choices, n):
    """n picks from choices, each about equally often, in seeded order."""
    picks = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def bt_windows(rng, lo, bound, n):
    """n windows (x, h) with 2 <= h <= x, lo <= x and x + h <= bound,
    x stratified in log."""
    out = []
    for x in stratified_log(rng, lo, bound / 2, n):
        h = min(x ** rng.uniform(0.5, 0.9), bound - x)
        out.append((x, max(h, 2.0)))
    return out


# ---------------------------------------------------------------------------

def ap_sieve(seed):
    """Residue classes with q <= 30: counters at log-stratified x in
    AP_X_RANGE plus the top of the range on the whole integers (which
    sets the peak memory), mean squares, Cramer scans and a batch of
    Brun-Titchmarsh windows."""
    rng = random.Random(f"ap-sieve/{seed}")
    ops = [("psi_ap", {"q": 1, "a": 0, "x": AP_X_RANGE[1]})]
    for kind in ("psi_ap", "pi_ap"):
        for q, x in zip(moduli(6), stratified_log(rng, *AP_X_RANGE, 6,
                                                  jitter=0.1)):
            q, a = unit_residue(rng, q)
            ops.append((kind, {"q": q, "a": a, "x": x}))
    for q, X in zip(moduli(4), stratified_log(rng, 1e5, AP_MEANSQ_MAX / 1.01,
                                              4, jitter=0.1)):
        q, a = unit_residue(rng, q)
        h = math.sqrt(X) * math.log(X) * rng.uniform(0.9, 1.1)
        ops.append(("meansq_ratio", {"q": q, "a": a, "X": X, "h": h}))
    for q in moduli(3):
        q, a = unit_residue(rng, q)
        ops.append(("cramer_ap", {"q": q, "a": a,
                                  "x_lo": AP_SCAN_RANGE[0],
                                  "x_hi": AP_SCAN_RANGE[1], "c1": C1}))
    for x in stratified_log(rng, 1e4, 1e7, 400):
        q, a = unit_class(rng, q_min=2)
        # the sieve's cost grows with h, so h follows x closely
        h = max(x ** rng.uniform(0.55, 0.65), 2.0 * q)
        ops.append(("bt_check_ap", {"q": q, "a": a, "x": x, "h": h}))
    # the whole-integers counter at the top of the range runs first, on a
    # fresh heap, so it alone sets the peak memory; the rest is shuffled
    # to spread cheap calls over the whole run
    rest = ops[1:]
    rng.shuffle(rest)
    return ops[:1] + rest


def _cli_argv(rng, sub, i):
    """The i-th argv of one subcommand, inside the warm bounds; `bt` and
    `zeros` alternate between their two kinds of target."""
    B = WARM_FIELD_BOUND
    fld = rng.choice(WARM_FIELDS[1:])
    zfld = rng.choice(("Q(i)", "Q(sqrt5)"))
    q, a = unit_class(rng, q_min=2)
    cls = ["--q", str(q), "--a", str(a)]
    if sub == "sieve":
        lo = rng.uniform(1e3, 1e4)
        return ["sieve", "--lo", f"{lo:.1f}", "--hi", f"{lo + 50 * q:.1f}"] \
            + cls
    if sub == "ap-scan":
        return ["ap-scan", "--x-lo", "1000", "--x-hi", "20000"] + cls
    if sub == "field-scan":
        degree, disc, _ = PRESETS[fld]
        top = scan_top(lambda x: field_window(x, degree, disc), B, 2e4)
        return ["field-scan", "--field", fld, "--x-lo", "1000", "--x-hi",
                str(int(top))]
    X = rng.uniform(2e3, 7e3)
    if sub == "meansq":
        return ["meansq", "--X", f"{X:.1f}", "--field", fld, "--h-coef",
                "1", "--h-theta", "0.5"]
    if sub == "inertia":
        return ["inertia", "--X", f"{X:.1f}", "--field", fld, "--h",
                f"{math.sqrt(X) * 2:.1f}"]
    if sub == "bt":
        (x, h), = bt_windows(rng, 1e3, B, 1)
        target = ["--field", fld] if i % 2 else cls
        return ["bt", "--x", f"{x:.1f}", "--h", f"{max(h, 2.0 * q):.1f}"] \
            + target
    if sub == "explicit":
        return ["explicit", "--T", "500", "--field", zfld, "--x-lo", "50.5",
                "--x-hi", "5000.5", "--x-step", "50"]
    if sub == "smoothed":
        x = rng.uniform(1e3, 1e4)
        return ["smoothed", "--x", f"{x:.1f}", "--T", "500", "--field", zfld,
                "--h", f"{x * rng.uniform(0.05, 0.2):.1f}", "--eps", "0.5"]
    if sub == "zeros":
        target = (["--field", zfld] if i % 2 else
                  ["--component", rng.choice(sorted(COMPONENTS))])
        return ["zeros", "--T", f"{rng.uniform(10, 600):.1f}"] + target
    raise ValueError(f"unknown subcommand {sub!r}")


def _zero_points(rng, n):
    """n (zero-table field, x, h, T) points for the explicit-formula
    operations: fields taken in turn, x log-stratified inside the
    field's counter."""
    out = []
    for zfld, t in zip(balanced(rng, sorted(ZERO_FIELDS), n), strata(rng, n)):
        x_top = min((WARM_Q_BOUND if zfld == "Q" else WARM_FIELD_BOUND) - 1,
                    1e5)
        x = 100 * (x_top / 150) ** t
        out.append((zfld, x, x * rng.uniform(0.02, 0.3),
                    rng.uniform(50, ZERO_FIELDS[zfld])))
    return out


def warm_queries(seed):
    """As many operations of each kind as TRAFFIC gives, all inside the
    bounds the set-up built: WARM_FIELDS to WARM_FIELD_BOUND, the Q
    counter to WARM_Q_BOUND and the zero tables."""
    rng = random.Random(f"warm-queries/{seed}")
    B = WARM_FIELD_BOUND
    n = TRAFFIC
    mix = []
    for kind in ("pi_K", "psi_K"):
        for fld, x in zip(balanced(rng, WARM_FIELDS, n[kind]),
                          stratified_log(rng, 2.0, B, n[kind])):
            mix.append((kind, {"field": fld, "x": x}))
    for kind in ("bt_check_field", "delta_K"):
        for fld, (x, h) in zip(balanced(rng, WARM_FIELDS, n[kind]),
                               bt_windows(rng, 1e2, B, n[kind])):
            mix.append((kind, {"field": fld, "x": x, "h": h}))
    for x, h in bt_windows(rng, 1e3, WARM_Q_BOUND, n["bt_check_ap"]):
        q, a = unit_class(rng, q_min=2)
        mix.append(("bt_check_ap", {"q": q, "a": a, "x": x,
                                    "h": max(h, 2.0 * q)}))
    for kind in ("mean_square", "inertia_scan"):
        for fld, X in zip(balanced(rng, WARM_FIELDS, n[kind]),
                          stratified_log(rng, 1e3, B / 2.2, n[kind])):
            mix.append((kind, {"field": fld, "X": X,
                               "h": X ** rng.uniform(0.4, 0.8)}))
    for zfld, _, _, T in _zero_points(rng, n["residual_scan"]):
        x_top = min((WARM_Q_BOUND if zfld == "Q" else B) - 1, 1e5)
        xs = sorted(math.floor(log_uniform(rng, 50, x_top)) + 0.5
                    for _ in range(5))
        mix.append(("residual_scan", {"field": zfld, "T": T, "xs": xs}))
    for zfld, x, h, _ in _zero_points(rng, n["smoothed_sum"]):
        mix.append(("smoothed_sum", {"field": zfld, "x": x, "h": h}))
    for zfld, x, h, T in _zero_points(rng, n["smoothed_prediction"]):
        mix.append(("smoothed_prediction", {"field": zfld, "x": x, "h": h,
                                            "T": T}))
    for zfld, x, h, _ in _zero_points(rng, n["unweighted_sandwich"]):
        mix.append(("unweighted_sandwich", {"field": zfld, "x": x, "h": h,
                                            "eps": rng.uniform(0.1, 0.9)}))
    tables = sorted(COMPONENTS) + ["Q(i)", "Q(sqrt5)"]
    for label in balanced(rng, tables, n["count_zeros"]):
        height = COMPONENTS.get(label) or ZERO_FIELDS[label]
        mix.append(("count_zeros", {"table": label,
                                    "T": rng.uniform(2, height)}))
    for fld in balanced(rng, sorted(PRESETS), n["predicted_count"]):
        mix.append(("predicted_count", {"n": PRESETS[fld][0],
                                        "d": PRESETS[fld][1],
                                        "T": rng.uniform(2, 1e4)}))
    for i in range(n["emit"]):
        mix.append(("emit", {"format": "csv" if i % 2 else "jsonl"}))
    argvs = [_cli_argv(rng, sub, i) for sub, calls in CLI_TRAFFIC.items()
             for i in range(calls)]
    for i, argv in enumerate(argvs):
        mix.append(("cli", {"argv": argv + ["--format",
                                            "csv" if i % 2 else "jsonl"]}))
    rng.shuffle(mix)
    return mix


PLANS = {"ap-sieve": ap_sieve, "warm-queries": warm_queries}
