"""Shared brute-force oracles and fixtures.

The oracles here deliberately avoid the package's sieving and
factorization code paths: primality is trial division, prime powers are
found by repeated division, splitting checks go through the Kronecker
symbol or, for cyclotomic fields, the multiplicative order of p.
"""

import contextlib
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from primelab import numfield, sieve
from primelab.counters import drift, window_events

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


def run_within_rss(code, budget_mb, *args):
    """Run `code` in a run_python child, with args as its sys.argv[1:].
    The child then prints its peak RSS to stderr and exits nonzero if
    `code` set a nonzero `status` or the peak passed budget_mb MB."""
    return run_python(["-c", "import resource, sys\nstatus = 0\n" + code
                       + "\nkb = resource.getrusage(resource.RUSAGE_SELF)"
                       ".ru_maxrss\n"
                       "print(f'peak {kb} KB', file=sys.stderr)\n"
                       f"sys.exit(status or kb > {budget_mb} * 1024)\n",
                       *args])


@contextlib.contextmanager
def sieve_ceiling(value):
    """Lower the sieve ceiling inside a with-block; reset on leaving."""
    token = sieve.CEILING.set(value)
    try:
        yield
    finally:
        sieve.CEILING.reset(token)


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
    pos, w, _ = window_events(target, X, 2 * X + h)
    pos = pos.astype(np.float64)
    cumulative = np.concatenate(([0.0], np.cumsum(w)))

    def psi(t):
        return cumulative[np.searchsorted(pos, t, side="right")]

    xs = X + (np.arange(int(round(X / step))) + 0.5) * step
    d = psi(xs + h) - psi(xs) - h * drift(target)
    return float(np.sum(d * d) * step)


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_primes(lo: float, hi: float):
    return [n for n in range(2, math.floor(hi) + 1)
            if n > lo and is_prime_trial(n)]


def cyclotomic_splitting(m: int, p: int):
    """Prime ideals above p in Q(zeta_m), as sorted (residue degree,
    ramification index) pairs.  With m = p^a m' and p not dividing m',
    e = phi(p^a), f is the order of p mod m' and phi(m')/f ideals lie
    above p.  Uses only pow and gcd."""
    a, rest = 0, m
    while rest % p == 0:
        a, rest = a + 1, rest // p
    e = p**a - p**(a - 1) if a else 1
    f = 1
    while rest > 1 and pow(p, f, rest) != 1:
        f += 1
    phi = sum(1 for k in range(1, rest + 1) if math.gcd(k, rest) == 1)
    return ((f, e),) * (phi // f)


def trial_prime_power(n: int):
    """(p, m) if n = p^m for a prime p, else None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            m, rest = 0, n
            while rest % p == 0:
                rest //= p
                m += 1
            return (p, m) if rest == 1 else None
        p += 1
    return (n, 1)


@pytest.fixture(scope="session")
def oracle_events_1e5():
    """Trial-division prime-power events up to 10^5 as numpy arrays
    (positions, bases, exponents, weights)."""
    pos, base, expo = [], [], []
    for n in range(2, 10**5 + 1):
        pm = trial_prime_power(n)
        if pm is not None:
            pos.append(n)
            base.append(pm[0])
            expo.append(pm[1])
    pos = np.array(pos)
    base = np.array(base)
    expo = np.array(expo)
    return pos, base, expo, np.log(base.astype(np.float64))
