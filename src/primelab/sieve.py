"""Segmented prime and prime-power enumeration.

Positions are integers; query bounds are arbitrary reals.  All counting
sums run over n <= x (right-continuous convention), so the window sum
psi(x+h) - psi(x) covers x < n <= x+h.

`event_arrays` builds Q's events; every read of them, for the totals
`psi_ap` and `pi_ap` too, goes through Q's store in `numfield`.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

DEFAULT_CEILING = 10**9
DEFAULT_SEGMENT = 1 << 20

# largest position a query may read; callers lower it with
# `token = CEILING.set(n)` and restore it with `CEILING.reset(token)`
CEILING = contextvars.ContextVar("CEILING", default=DEFAULT_CEILING)


def check_capacity(hi: float) -> int:
    """The ceiling in force, which may only lower DEFAULT_CEILING (else
    ValueError); CapacityError if hi exceeds it."""
    ceiling = CEILING.get()
    if not 1 <= ceiling <= DEFAULT_CEILING:
        raise ValueError(f"ceiling must lie in [1, {DEFAULT_CEILING}], "
                         f"got {ceiling}")
    if hi > ceiling:
        raise CapacityError(f"hi={hi} exceeds ceiling {ceiling}")
    return ceiling


@dataclass(frozen=True)
class ResidueClass:
    """Residue a modulo q.  gcd(a, q) = 1 is required only by the
    theorem-level experiments, not by the type itself."""

    modulus: int = 1
    residue: int = 0

    def __post_init__(self):
        if not 1 <= self.modulus < 2**63:      # positions are int64
            raise ValueError(f"modulus must lie in [1, 2^63), got "
                             f"{self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue must lie in [0, {self.modulus}), got {self.residue}")

    @property
    def is_unit(self) -> bool:
        return math.gcd(self.residue, self.modulus) == 1


EVERYTHING = ResidueClass(1, 0)


def euler_phi(q: int) -> int:
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q >= 2**32:      # trial division would take minutes
        from sympy import totient
        return int(totient(q))
    result = q
    n, p = q, 2
    while p * p <= n:
        if n % p == 0:
            result -= result // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        result -= result // n
    return result


# base-prime cache (primes up to sqrt(ceiling)), grown monotonically
_base_cache = {"limit": 0, "primes": np.empty(0, dtype=np.int64)}


def base_primes(limit: int) -> np.ndarray:
    """Primes up to limit, from a cache that sieve_primes refills; the
    recursion ends below 4, where no base prime is needed."""
    if limit > _base_cache["limit"]:
        _base_cache["primes"] = sieve_primes(1, limit)
        _base_cache["limit"] = limit
    primes = _base_cache["primes"]
    return primes[: np.searchsorted(primes, limit, side="right")]


def sieve_primes(lo: float, hi: float) -> np.ndarray:
    """Primes p with lo < p <= hi, ascending."""
    if hi < lo:
        raise ValueError(f"hi={hi} below lo={lo}")
    check_capacity(hi)
    start = max(2, math.floor(lo) + 1)
    end = math.floor(hi)
    if end < start:
        return np.empty(0, dtype=np.int64)
    base = base_primes(math.isqrt(end))
    chunks = []
    for seg_lo in range(start, end + 1, DEFAULT_SEGMENT):
        seg_hi = min(seg_lo + DEFAULT_SEGMENT - 1, end)
        mask = np.ones(seg_hi - seg_lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            first = max(p * p, ((seg_lo + p - 1) // p) * p)
            if first > seg_hi:
                continue
            mask[first - seg_lo:: p] = False
        if seg_lo <= 1:
            mask[: 2 - seg_lo] = False
        hits = np.nonzero(mask)[0] + seg_lo
        chunks.append(hits.astype(np.int64))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def event_arrays(lo: float, hi: float, cls: ResidueClass = EVERYTHING):
    """Prime-power events with position in (lo, hi] restricted to cls.

    Returns (positions, bases, exponents, weights) as parallel numpy
    arrays sorted by position.
    """
    if lo < 1:
        raise ValueError(f"lo must be >= 1, got {lo}")
    primes = sieve_primes(lo, hi)
    rows = []                # (p^m, p, m) for m >= 2
    for p in sieve_primes(1, math.sqrt(hi)).tolist():
        n, m = p * p, 2
        while n <= hi:
            if n > lo:
                rows.append((n, p, m))
            n, m = n * p, m + 1
    powers = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    pos = np.concatenate([primes, powers[0]])
    base = np.concatenate([primes, powers[1]])
    expo = np.concatenate([np.ones(len(primes), dtype=np.int64), powers[2]])
    if cls.modulus > 1:
        keep = pos % cls.modulus == cls.residue
        pos, base, expo = pos[keep], base[keep], expo[keep]
    order = np.argsort(pos, kind="stable")
    pos, base, expo = pos[order], base[order], expo[order]
    weights = np.log(base.astype(np.float64))
    return pos, base, expo, weights


def _q():
    """numfield and its field Q, whose store serves every residue class."""
    from . import numfield      # here, as numfield imports this module
    return numfield, numfield.preset("Q")


def psi_ap(x: float, cls: ResidueClass = EVERYTHING) -> float:
    """Chebyshev psi(x; q, a): sum of Lambda(n) over n <= x in the class.

    Uses exactly rounded summation (math.fsum), so partitioning the event
    set over residue classes cannot change the total.
    """
    numfield, q = _q()
    return numfield.psi_K(q, x, cls)


def pi_ap(x: float, cls: ResidueClass = EVERYTHING) -> int:
    """Number of primes p <= x with p = a (mod q)."""
    numfield, q = _q()
    return numfield.pi_K(q, x, cls)
