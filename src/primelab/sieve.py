"""Segmented prime and prime-power enumeration.

Positions are integers; query bounds are arbitrary reals.  All counting
sums run over n <= x (right-continuous convention), so the window sum
psi(x+h) - psi(x) covers x < n <= x+h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

DEFAULT_CEILING = 10**9
DEFAULT_SEGMENT = 1 << 20


@dataclass(frozen=True)
class ResidueClass:
    """Residue a modulo q.  gcd(a, q) = 1 is required only by the
    theorem-level experiments, not by the type itself."""

    modulus: int = 1
    residue: int = 0

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
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


@dataclass(frozen=True)
class PrimePowerEvent:
    """A prime power n = p^m carrying the von Mangoldt weight log p."""

    position: int
    base: int
    exponent: int
    weight: float


# base-prime cache (primes up to sqrt(ceiling)), grown monotonically
_base_cache = {"limit": 0, "primes": np.empty(0, dtype=np.int64)}


def _simple_sieve(n: int) -> np.ndarray:
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def base_primes(limit: int) -> np.ndarray:
    if limit > _base_cache["limit"]:
        _base_cache["primes"] = _simple_sieve(limit)
        _base_cache["limit"] = limit
    primes = _base_cache["primes"]
    return primes[: np.searchsorted(primes, limit, side="right")]


def sieve_primes(lo: float, hi: float, *,
                 ceiling: int = DEFAULT_CEILING) -> np.ndarray:
    """Primes p with lo < p <= hi, ascending."""
    if hi < lo:
        raise ValueError(f"hi={hi} below lo={lo}")
    if hi > ceiling:
        raise CapacityError(f"hi={hi} exceeds ceiling {ceiling}")
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


def event_arrays(lo: float, hi: float, cls: ResidueClass = EVERYTHING, *,
                 ceiling: int = DEFAULT_CEILING):
    """Prime-power events with position in (lo, hi] restricted to cls.

    Returns (positions, bases, exponents, weights) as parallel numpy
    arrays sorted by position.
    """
    if lo < 1:
        raise ValueError(f"lo must be >= 1, got {lo}")
    primes = sieve_primes(lo, hi, ceiling=ceiling)
    positions = [primes]
    bases = [primes]
    exponents = [np.ones(len(primes), dtype=np.int64)]
    if hi >= 4:
        for p in sieve_primes(1, math.sqrt(hi), ceiling=ceiling):
            p = int(p)
            n, m = p * p, 2
            while n <= hi:
                if n > lo:
                    positions.append(np.array([n], dtype=np.int64))
                    bases.append(np.array([p], dtype=np.int64))
                    exponents.append(np.array([m], dtype=np.int64))
                n, m = n * p, m + 1
    pos = np.concatenate(positions)
    base = np.concatenate(bases)
    expo = np.concatenate(exponents)
    if cls.modulus > 1:
        keep = pos % cls.modulus == cls.residue
        pos, base, expo = pos[keep], base[keep], expo[keep]
    order = np.argsort(pos, kind="stable")
    pos, base, expo = pos[order], base[order], expo[order]
    weights = np.log(base.astype(np.float64))
    return pos, base, expo, weights


def prime_power_events(lo: float, hi: float,
                       cls: ResidueClass = EVERYTHING, *,
                       ceiling: int = DEFAULT_CEILING) -> list[PrimePowerEvent]:
    pos, base, expo, weights = event_arrays(lo, hi, cls, ceiling=ceiling)
    return [PrimePowerEvent(int(n), int(p), int(m), float(w))
            for n, p, m, w in zip(pos, base, expo, weights)]


def psi_ap(x: float, cls: ResidueClass = EVERYTHING, *,
           ceiling: int = DEFAULT_CEILING) -> float:
    """Chebyshev psi(x; q, a): sum of Lambda(n) over n <= x in the class.

    Uses exactly rounded summation (math.fsum), so partitioning the event
    set over residue classes cannot change the total.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x < 2:
        return 0.0
    _, _, _, weights = event_arrays(1, x, cls, ceiling=ceiling)
    return math.fsum(weights)


def pi_ap(x: float, cls: ResidueClass = EVERYTHING, *,
          ceiling: int = DEFAULT_CEILING) -> int:
    """Number of primes p <= x with p = a (mod q)."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x < 2:
        return 0
    primes = sieve_primes(1, x, ceiling=ceiling)
    if cls.modulus > 1:
        primes = primes[primes % cls.modulus == cls.residue]
    return int(len(primes))
