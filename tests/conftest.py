"""Shared fixtures, child-process runners and cross-checks.

The brute-force oracles, which share no code with the package, live in
`oracles.py`.
"""

import contextlib
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from primelab import numfield, sieve
from primelab.counters import drift, window_events

from oracles import trial_prime_power

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_MEMORY = 1 << 30      # address-space cap for run_python children


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def run_python(args):
    """Run `python *args` in a child process that imports this checkout's
    package.  A hang raises TimeoutExpired (the child is killed) and a
    runaway allocation a MemoryError in the child, so either fails the
    test instead of stalling the suite or exhausting the host."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60, env=env,
                          preexec_fn=_cap_memory)


# the child's own peak RSS in KB: VmHWM, which starts afresh at exec,
# where Linux's ru_maxrss keeps the peak of the process that forked it
# (the test runner's, often above 100 MB)
PEAK_KB = """
try:
    with open('/proc/self/status') as fh:
        kb = next(int(line.split()[1]) for line in fh
                  if line.startswith('VmHWM:'))
except (OSError, StopIteration):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""


def run_within_rss(code, budget_mb, *args):
    """Run `code` in a run_python child, with args as its sys.argv[1:].
    The child then prints its peak RSS to stderr and exits nonzero if
    `code` set a nonzero `status` or the peak passed budget_mb MB."""
    return run_python(["-c", "import resource, sys\nstatus = 0\n" + code
                       + PEAK_KB
                       + "print(f'peak {kb} KB', file=sys.stderr)\n"
                       f"sys.exit(status or kb > {budget_mb} * 1024)\n",
                       *args])


# Linux counts each process's minor page faults in ru_minflt; other
# systems may leave it 0
LINUX_ONLY = pytest.mark.skipif(
    sys.platform != "linux", reason="counts Linux minor page faults")


def run_counting_faults(setup, measured):
    """Run `setup`, then `measured`, in a run_python child: (the child's
    process, the minor page faults it took while `measured` ran, from its
    own getrusage before and after, or None if it failed).  A warm call
    that takes few faults reuses the memory it freed, where one that
    takes hundreds per read maps and faults in fresh pages."""
    proc = run_python(["-c", "import resource, sys\n" + setup
                       + "\nbefore = resource.getrusage("
                       "resource.RUSAGE_SELF).ru_minflt\n" + measured
                       + "\nfaults = resource.getrusage("
                       "resource.RUSAGE_SELF).ru_minflt - before\n"
                       "print(f'faults {faults}', file=sys.stderr)\n"])
    faults = int(proc.stderr.split()[-1]) if proc.returncode == 0 else None
    return proc, faults


def traced_peak(fn):
    """(fn(), the peak in bytes of what it allocated while it ran), by
    tracemalloc: numpy reports its buffers there, so unlike a child's peak
    RSS the figure does not depend on where glibc places them."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def sieve_ceiling(value):
    """Lower the sieve ceiling inside a with-block; reset on leaving."""
    token = sieve.CEILING.set(value)
    try:
        yield
    finally:
        sieve.CEILING.reset(token)


def weighed(columns):
    """(positions, exponents, weights) of a build's four columns
    (`sieve.merge_events`): its positions and exponents, and
    `sieve.weigh` of the rest."""
    pos, expo, slots, row_weights = columns
    return pos, expo, sieve.weigh(pos, slots, row_weights)


@pytest.fixture
def empty_stores(monkeypatch):
    """Run the test against empty field event stores; the shared stores
    come back afterwards."""
    monkeypatch.setattr(numfield, "_stores", {})


def psi_prefix(positions, weights, x):
    """psi(x): the exactly rounded sum of the weights at positions <= x."""
    return math.fsum(np.asarray(weights)[np.asarray(positions) <= x])


def mean_square_sampled(X, h, target, step=1e-2):
    """Riemann-sum cross-check of mean_square on a regular midpoint grid;
    psi is the running `np.cumsum` prefix of the events in (X, 2X + h]."""
    pos, _, w = window_events(target, X, 2 * X + h)
    pos = pos.astype(np.float64)
    cumulative = np.concatenate(([0.0], np.cumsum(w)))

    def psi(t):
        return cumulative[np.searchsorted(pos, t, side="right")]

    xs = X + (np.arange(int(round(X / step))) + 0.5) * step
    d = psi(xs + h) - psi(xs) - h * drift(target)
    return float(np.sum(d * d) * step)


@pytest.fixture(scope="session")
def oracle_events_1e5():
    """Trial-division prime-power events up to 10^5 as numpy arrays
    (positions, exponents, weights), the weight of p^m being log p."""
    pos, base, expo = [], [], []
    for n in range(2, 10**5 + 1):
        pm = trial_prime_power(n)
        if pm is not None:
            pos.append(n)
            base.append(pm[0])
            expo.append(pm[1])
    return (np.array(pos), np.array(expo),
            np.log(np.array(base, dtype=np.float64)))
