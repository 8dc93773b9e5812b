"""CLI fuzz test: every argv either computes or exits with its documented
code (0-5), and never ends in a traceback.

hypothesis draws argv for all nine subcommands from ranges that include
0, negatives, huge integers, tiny floats, nan and inf, plus conflicting
target and window flags; every subcommand that reads positions gets a
`--ceiling` of at most 10^5.  Each batch of argv runs through `cli.main`
in one child process (`conftest.run_python`), so that its time limit and
memory cap turn a hang or a runaway allocation into a failure.
"""

import json
import math
import subprocess

from hypothesis import Phase, given, settings, strategies as st

from conftest import run_python

# runs each argv of the batch in argv[1] through cli.main and prints one
# JSON line [exit code or traceback, stderr] per argv as soon as it ends
CHILD = r"""
import contextlib, io, json, sys, traceback
from primelab.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit):     # SystemExit: argparse exiting
            code = traceback.format_exc()
    print(json.dumps([code, err.getvalue()]), flush=True)
"""

BATCH = 30

SPECIAL = ["0", "-0.0", "-1", "-1e9", "1e-300", "5e-324", "1e-9", "0.5",
           "2", "nan", "inf", "-inf", "1e300", "1e9"]
HUGE_INTS = ["0", "-1", "-7", str(2**31 - 1), "4611686018427387847",
             str(2**63 - 1), str(2**63), str(10**21), str(-10**21)]
FIELDS = ["Q", "Q(i)", "Q(sqrt5)", "cyclo7"]
SUBCOMMANDS = ["sieve", "ap-scan", "field-scan", "meansq", "inertia", "bt",
               "explicit", "smoothed", "zeros"]


def random_argv(rnd):
    """One argv.  Each value comes from its subcommand's working range, or
    is tiny, or one time in eight comes from SPECIAL, HUGE_INTS or a bad
    name; one target or window in eight is given twice, in part, or not at
    all."""
    sub = rnd.choice(SUBCOMMANDS)
    argv = [sub]

    def odd():
        return rnd.random() < 1 / 8

    def real(lo, hi, tiny=1 / 16):
        """A float in [lo, hi], or one time in `tiny` a positive one as
        small as 1e-320, or one time in eight a SPECIAL one."""
        if odd():
            return rnd.choice(SPECIAL)
        if rnd.random() < tiny:
            return repr(10 ** rnd.uniform(-320, 0))
        return repr(rnd.uniform(lo, hi))

    def flag(name, value, p=1.0):
        if rnd.random() < p:
            argv.append(f"--{name}={value}")

    def field():
        return rnd.choice(["Q(nope)", ""]) if odd() else rnd.choice(FIELDS)

    def progression(p=1.0):
        q = rnd.randint(1, 30)
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        flag("q", rnd.choice(HUGE_INTS) if odd() else q, p)
        flag("a", rnd.choice(HUGE_INTS + [q, q + 1, -1]) if odd()
             else rnd.choice(units), p)

    def span(lo, hi, width):
        start = rnd.uniform(lo, hi)
        flag("x-lo", real(start, start))
        flag("x-hi", real(start, start + width))

    def target():
        kind = rnd.choice(["field+a", "field+q", "a", "none"] if odd()
                          else ["qa", "field"])
        if "q" in kind:
            progression()
        if kind == "a" or kind == "field+a":
            flag("a", rnd.randint(0, 30))
        if "field" in kind:
            flag("field", field())

    def window(lo, hi):
        kind = rnd.choice(["h+law", "theta", "none"] if odd()
                          else ["h", "law"])
        if kind.startswith("h"):
            flag("h", real(lo, hi))
        if "law" in kind:
            flag("h-coef", real(0, 10))
        if kind != "h":
            flag("h-theta", real(0, 1), p=0.7)
            flag("h-kappa", real(0, 2), p=0.5)

    if sub == "sieve":
        lo = rnd.uniform(0, 9e4)
        flag("lo", real(lo, lo))
        flag("hi", real(lo, lo + 1e4))
        progression(p=0.6)
    elif sub == "ap-scan":
        progression()
        span(0, 1e4, 1e4)
        flag("c1", real(0, 8, tiny=1 / 4), p=0.7)
    elif sub == "field-scan":
        flag("field", field())
        span(0, 2e4, 3e4)
        flag("c1", real(0, 8, tiny=1 / 4), p=0.7)
    elif sub in ("meansq", "inertia"):
        flag("X", real(0, 4e4))
        target()
        window(0, 1e3)
        if sub == "meansq":
            flag("ratio-ceiling", real(0, 10), p=0.3)
        else:
            flag("persist-c", real(0, 1), p=0.5)
    elif sub == "bt":
        flag("x", real(0, 5e4))
        target()
        window(0, 5e3)
    elif sub == "explicit":
        flag("T", real(2, 3000))
        flag("field", field(), p=0.5)
        if rnd.random() < 0.5:
            span(0, 2e4, 3e4)
        flag("x-step", real(10, 1e4), p=0.7)
    elif sub == "smoothed":
        flag("x", real(0, 5e4))
        flag("T", real(2, 3000))
        flag("field", field(), p=0.5)
        window(0, 1e4)
        flag("eps", real(0, 1), p=0.5)
    else:
        kind = rnd.choice(["both", "none"] if odd()
                          else ["component", "field"])
        if kind in ("component", "both"):
            flag("component", rnd.choice(["zeta", "chi4", "chi5", "chi3"]))
        if kind in ("field", "both"):
            flag("field", field())
        flag("T", real(2, 3000))
    if sub != "zeros":
        flag("ceiling", rnd.choice(["-5", "0", "1", "1000"])
             if odd() else "100000")
    if sub in ("explicit", "smoothed", "zeros"):
        flag("zero-manifest", "/no/such/manifest.txt", p=0.1)
    flag("format", rnd.choice(["csv", "jsonl"]), p=0.5)
    flag("output", "/no/such/dir/rows.csv", p=0.05)
    return argv


# no shrinking: each shrink step of a hang would wait out the time limit
@settings(max_examples=4, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(st.randoms(use_true_random=True))
def test_every_argv_exits_with_a_documented_code(rnd):
    batch = [random_argv(rnd) for _ in range(BATCH)]
    try:
        proc = run_python(["-c", CHILD, json.dumps(batch)])
    except subprocess.TimeoutExpired as exc:
        done = len((exc.stdout or b"").splitlines())
        raise AssertionError(f"hung on {batch[done]}") from None
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(batch), \
        (batch[len(results)], proc.returncode, proc.stderr[-2000:])
    for argv, (code, err) in zip(batch, results):
        assert code in range(6), (argv, code)
        assert code < 2 or "primelab: " in err, (argv, err)
