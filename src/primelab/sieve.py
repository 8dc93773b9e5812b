"""Segmented prime and prime-power enumeration.

Positions are integers; query bounds are arbitrary reals.  All counting
sums run over n <= x (right-continuous convention), so the window sum
psi(x+h) - psi(x) covers x < n <= x+h.

`event_arrays` builds Q's events, and those of one residue class alone
from a sieve of that class's progression; every read of them, for the
totals `psi_ap` and `pi_ap` too, goes through Q's store in `numfield`.
`merge_events` lays out the columns of every read, Q's and a field's:
positions and exponents, and the few rows whose weight is not log n
(the powers of the primes up to sqrt(hi)) as slots and weights; `weigh`
makes a read's weights column from them.
"""

from __future__ import annotations

import contextvars
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

DEFAULT_CEILING = 10**9
DEFAULT_SEGMENT = 1 << 20         # class members per sieve segment

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
    """Residue a modulo q, both integers (else TypeError).  gcd(a, q) = 1
    is required only by the theorem-level experiments, not by the type."""

    modulus: int = 1
    residue: int = 0

    def __post_init__(self):
        q, a = operator.index(self.modulus), operator.index(self.residue)
        if not 1 <= q < 2**63:      # positions are int64
            raise ValueError(f"modulus must lie in [1, 2^63), got "
                             f"{self.modulus}")
        if not 0 <= a < q:
            raise ValueError(
                f"residue must lie in [0, {self.modulus}), got {self.residue}")

    @property
    def is_unit(self) -> bool:
        return math.gcd(self.residue, self.modulus) == 1


EVERYTHING = ResidueClass(1, 0)


@functools.lru_cache(maxsize=1024)
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
    recursion ends where a window holds one odd number at most."""
    if limit > _base_cache["limit"]:
        _base_cache["primes"] = sieve_primes(1, limit)
        _base_cache["limit"] = limit
    primes = _base_cache["primes"]
    return primes[: np.searchsorted(primes, limit, side="right")]


@functools.lru_cache(maxsize=64)
def _inverses(step: int, bits: int) -> np.ndarray:
    """1/step modulo each prime below 2^bits (0 where it divides step): a
    sieve of a class with this step crosses out from -r/step mod p."""
    return np.array([pow(step, -1, p) if step % p else 0
                     for p in base_primes(1 << bits).tolist()], np.int64)


def sieve_primes(lo: float, hi: float,
                 cls: ResidueClass = EVERYTHING) -> np.ndarray:
    """Primes p with lo < p <= hi in the class cls, ascending.

    Segments hold the class's odd members: index i stands for r + step*i
    (step = lcm(2, q), r the odd residue = a mod q), and an odd base prime
    p not dividing q crosses out every p-th index from -r/step (mod p),
    moved up to p^2.  2 is added by hand.  A non-unit class holds one prime
    at most, a (q when a = 0), and a window narrower than the step one
    member: such a number is tested alone, off numpy (a step may pass
    int64)."""
    if not lo <= hi:                    # NaN fails too
        raise ValueError(f"need lo <= hi, got lo={lo}, hi={hi}")
    check_capacity(hi)
    q, a = cls.modulus, cls.residue
    few, chunks = [a or q], []          # the one prime a non-unit may hold
    if cls.is_unit:
        step = q if q % 2 == 0 else 2 * q
        r = a if a % 2 else a + q
        start, end = math.floor(max(lo, 2)) + 1, math.floor(max(hi, 2))
        i_lo, i_hi = -((r - start) // step), (end - r) // step
        few = [2] if 2 % q == a else []
        if i_hi <= i_lo:                # one member at most
            few.append(r + step * i_lo)
        else:
            base = base_primes(math.isqrt(end))
            inv = _inverses(step, math.isqrt(end).bit_length())[:len(base)]
            keep = step % base != 0             # 2 and the primes dividing q
            base, inv = base[keep], inv[keep]
            plist = base.tolist()
            low = (base * base - r + step - 1) // step   # first index >= p^2
            first = low + ((-r % base) * inv - low) % base
            for s0 in range(i_lo, i_hi + 1, DEFAULT_SEGMENT):
                mask = np.ones(min(DEFAULT_SEGMENT, i_hi + 1 - s0), bool)
                off = first - s0
                for p, i in zip(plist, np.maximum(off, off % base).tolist()):
                    mask[i::p] = False
                chunks.append(np.flatnonzero(mask) * step + (r + step * s0))
    head = [n for n in few if lo < n <= hi
            and np.all(n % base_primes(math.isqrt(n)))]
    return np.concatenate([np.array(head, dtype=np.int64), *chunks])


def merge_events(stream, primes, degrees, lo, hi, cls=EVERYTHING):
    """Event columns (positions, exponents), int64 and int16 arrays owning
    their buffers, and the merged rows' slots in them and weights: the
    read's weights are `weigh` of the four.  Each prime p of the ascending
    stream is one ideal of norm p (exponent 1, weight log p); each prime p
    of the array primes, with its residue degree f from degrees (an array
    or one number for all), is one ideal P of norm p^f, whose powers P^m
    with norm in (lo, hi] and in cls are merged in as rows (exponent m,
    weight f log p), equal norms in ascending f.  Pass stream as a call
    expression: the merge then frees it once the positions are built."""
    p = np.asarray(primes, dtype=np.int64)
    f = np.broadcast_to(np.asarray(degrees, dtype=np.int64), p.shape)
    # each P's largest m with p^(f m) <= hi, from logs and at worst one too
    # high (p^(f m) then stays at most hi sqrt(hi), in int64 under the
    # ceiling), then checked exactly
    tops = np.floor(math.log(hi) / (f * np.log(p)) + 1e-9).astype(np.int64)
    lane = np.repeat(np.arange(len(p)), tops)
    m = np.arange(1, len(lane) + 1) - np.repeat(np.cumsum(tops) - tops, tops)
    norm = p[lane] ** (f[lane] * m)
    keep = (norm > lo) & (norm <= hi) & (norm % cls.modulus == cls.residue)
    rows = np.stack([norm, p[lane], f[lane], m])[:, keep]
    rows = rows[:, np.lexsort(rows[::-1])]
    at = np.searchsorted(stream, rows[0])
    pos = np.insert(stream, at, rows[0])
    del stream
    at += np.arange(len(at))            # the rows' slots in pos
    expo = np.ones(len(pos), np.int16)
    expo[at] = rows[3]
    return pos, expo, at, rows[2] * np.log(rows[1], dtype=np.float64)


def weigh(pos, slots, row_weights):
    """The weights column of a read: log n at each position n, and at the
    slots the merged rows' own weights (`merge_events`).  Every weights
    column of a store or a build is made here."""
    weights = np.log(pos, dtype=np.float64)
    weights[slots] = row_weights
    return weights


def event_arrays(lo: float, hi: float, cls: ResidueClass = EVERYTHING):
    """Prime-power events with position in (lo, hi] restricted to cls.

    The four columns of `merge_events`: the primes above sqrt(hi), from a
    sieve of the class alone, are its stream, and each prime up to
    sqrt(hi), from the base-prime cache, one ideal of degree 1.
    """
    if lo < 1:
        raise ValueError(f"lo must be >= 1, got {lo}")
    root = math.isqrt(math.floor(hi))
    return merge_events(sieve_primes(max(lo, root), hi, cls),
                        base_primes(root), 1, lo, hi, cls)


def psi_ap(x: float, cls: ResidueClass = EVERYTHING) -> float:
    """Chebyshev psi(x; q, a): sum of Lambda(n) over n <= x in the class.

    Exactly rounded (`numfield.psi_K` sums in integer fixed point), so
    partitioning the event set over residue classes cannot change the
    total.  Above Q's store only the class is sieved.  A cold
    psi_ap(1e8) on a 2-core host: 0.25-0.3 s and 49 MB peak for q = 1,
    0.1 s and 49 MB for q = 30.
    """
    from .numfield import preset, psi_K  # numfield imports this module
    return psi_K(preset("Q"), x, cls)


def pi_ap(x: float, cls: ResidueClass = EVERYTHING) -> int:
    """Number of primes p <= x with p = a (mod q)."""
    from .numfield import pi_K, preset
    return pi_K(preset("Q"), x, cls)
