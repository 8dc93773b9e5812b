"""Number fields via a monic irreducible defining polynomial.

Prime-ideal splitting is read off the factorization of the polynomial
mod p (Dedekind's theorem).  Only the degrees of the factors matter, and
`fppoly.degree_counts` finds them for a whole array of primes in one
batched Frobenius pass: event builds and `splitting_types` hand it many
primes at once, `splitting_type` one.  Primes dividing the index
[O_K : Z[theta]] are rejected with UnsupportedPrimeError rather than
handled; the shipped presets are all monogenic, so this only bites
user-supplied polynomials.

Every event read goes through `ideal_event_arrays`, which slices one
store per field, grown by doubling up to STORE_BOUND; a read above the
cap, or starting past what the store holds, is built alone.  Q's store
also serves residue classes: a slice of it keeps its class, and a read
built alone sieves only the class.  The totals `psi_K` and `pi_K` read it;
`psi_K` sums exactly in integer fixed point and rounds once, as fsum does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import fppoly, sieve
from .errors import UnsupportedPrimeError


def _sympy_poly(coeffs):
    from sympy import Poly, Symbol  # heavyweight; imported on demand
    return Poly(list(reversed(coeffs)), Symbol("x"), domain="QQ")


def poly_discriminant(coefficients) -> int:
    """disc(f) = (-1)^(n(n-1)/2) * res(f, f') for monic integer f."""
    coeffs = [int(c) for c in coefficients]
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    from sympy import discriminant
    return int(discriminant(_sympy_poly(coeffs)))


def _is_irreducible(coeffs) -> bool:
    return _sympy_poly(coeffs).is_irreducible


def dedekind_index_test(coefficients, p: int) -> bool:
    """True iff p does not divide the index [O_K : Z[theta]].

    Dedekind's criterion: with f = prod g_i^{e_i} mod p, g = prod g_i and
    h = f/g mod p, the test passes iff gcd(g, h, (g*h* - f)/p) = 1 in F_p,
    where g*, h* are lifts of g, h.  Both come from the squarefree
    decomposition f = prod s_j^j mod p: g = prod s_j, h = prod s_j^(j-1).
    """
    f = [int(c) for c in coefficients]
    g = [1]
    h = [1]
    for part, mult in fppoly.squarefree_parts(fppoly.reduce_mod(f, p), p):
        g = fppoly.mul(g, part, p)
        for _ in range(mult - 1):
            h = fppoly.mul(h, part, p)
    # g*h - f is needed only mod p^2: its quotient by p is read mod p
    diff = fppoly.sub(fppoly.mul(g, h, p * p), f, p * p)
    if any(d % p for d in diff):
        raise ArithmeticError("g*h != f mod p; decomposition bug")
    fbar = [d // p for d in diff]
    cand = fppoly.gcd(fppoly.gcd(fbar, g, p), h, p)
    return fppoly.degree(cand) <= 0


@dataclass(frozen=True)
class SplittingType:
    """Prime ideals above p as pairs (residue degree f, ramification e)."""

    prime: int
    factors: tuple

    def norm_count(self, k: int) -> int:
        """Number of prime ideals of norm p^k."""
        return sum(1 for f, _ in self.factors if f == k)

    @property
    def degree_sum(self) -> int:
        return sum(e * f for f, e in self.factors)


@dataclass(frozen=True)
class NumberFieldSpec:
    coefficients: tuple          # monic, constant term first
    degree: int
    poly_disc: int               # signed disc(f)
    field_disc: int              # |d_K|
    bad_primes: frozenset        # primes dividing the index
    name: str = ""

    @classmethod
    def from_poly(cls, coefficients, field_disc=None,
                  name="") -> "NumberFieldSpec":
        coeffs = tuple(int(c) for c in coefficients)
        n = len(coeffs) - 1
        if n < 1 or coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic, deg >= 1")
        if not _is_irreducible(coeffs):
            raise ValueError(f"{list(coeffs)} is reducible over Q")
        disc = poly_discriminant(coeffs)
        bad = frozenset(
            p for p in _square_divisor_primes(disc)
            if not dedekind_index_test(coeffs, p))
        if field_disc is None:
            if bad:
                raise ValueError(
                    f"index divisible by {sorted(bad)}; supply field_disc")
            field_disc = abs(disc)
        field_disc = int(field_disc)
        if field_disc < 1 or abs(disc) % field_disc != 0:
            raise ValueError(f"field_disc {field_disc} does not divide "
                             f"|disc(f)| = {abs(disc)}")
        quot = abs(disc) // field_disc
        if math.isqrt(quot) ** 2 != quot:
            raise ValueError(
                f"|disc(f)|/field_disc = {quot} is not a perfect square")
        return cls(coeffs, n, disc, field_disc, bad, name)

    @property
    def log_disc(self) -> float:
        return math.log(self.field_disc)


def _square_divisor_primes(disc: int):
    if disc == 0:
        raise ValueError("zero discriminant")
    from sympy import factorint
    return sorted(p for p, e in factorint(abs(disc)).items() if e >= 2)


def splitting_type(fld: NumberFieldSpec, p: int) -> SplittingType:
    """Splitting of the rational prime p via Dedekind's theorem.  One
    prime costs a whole kernel pass; split many with splitting_types."""
    return splitting_types(fld, [p])[0]


def splitting_types(fld: NumberFieldSpec, primes) -> list:
    """splitting_type of each prime; f is squarefree mod the primes not
    dividing disc f, which go through the Frobenius kernel as one batch."""
    primes = [int(p) for p in primes]
    for p in primes:
        if p in fld.bad_primes:
            raise UnsupportedPrimeError(p, fld.name)
    lanes = [p for p in primes if fld.poly_disc % p]
    counts = dict(zip(lanes, fppoly.degree_counts(
        fld.coefficients, np.array(lanes, dtype=object), fld.degree).tolist()))
    out = []
    for p in primes:
        degrees = fppoly.factor_degree_multiset(fld.coefficients, p) \
            if p not in counts else \
            [(d, 1) for d, c in enumerate(counts[p], 1) for _ in range(c)]
        out.append(SplittingType(prime=p, factors=tuple(degrees)))
        if out[-1].degree_sum != fld.degree:
            raise ArithmeticError(
                f"splitting degrees at p={p} sum to {out[-1].degree_sum}, "
                f"expected {fld.degree}")
    return out


# one store per field: (bound, arrays) holding every event with norm <= bound
_stores: dict = {}

# largest bound a store grows to: Q's then holds 1.1M events (26 B each)
STORE_BOUND = 2**24


def _in_class(columns, cls):
    """The columns' events whose norm lies in residue class cls."""
    if cls.modulus == 1:
        return tuple(columns)
    keep = (columns[0] % cls.modulus == cls.residue).nonzero()[0]
    return tuple([a.take(keep) for a in columns])


def _build_events(fld: NumberFieldSpec, lo: int, hi: int,
                  cls=sieve.EVERYTHING):
    """(positions, bases, exponents, weights) of the ideal-power events
    with norm in (lo, hi] and in class cls (Q sieves only cls), ascending;
    equal norms (one prime's) in ascending residue degree.

    The unramified primes above sqrt(hi) need only their root counts,
    read for all of them in one batched Frobenius pass
    (`fppoly.count_roots`); the primes below, and the few ramified ones
    (p | disc f), go through `splitting_types`; those in (sqrt(hi), lo],
    with no norm in range, are not read.
    """
    if fld.degree == 1:
        pos, base, expo, weights = sieve.event_arrays(lo, hi, cls)
        return pos, base, expo.astype(np.int16), weights
    root = math.isqrt(hi)
    primes = np.concatenate([sieve.sieve_primes(1, root),
                             sieve.sieve_primes(max(lo, root), hi)])
    # bad primes are excluded; reads holding one of their powers raise
    primes = primes[~np.isin(primes, sorted(fld.bad_primes))]
    disc = primes.astype(object if abs(fld.poly_disc) >> 62 else np.int64)
    # above sqrt(hi) an unramified prime's ideals have norm p, one per
    # root of f mod p; the rest need the full pattern
    full = (primes <= root) | (fld.poly_disc % disc == 0).astype(bool)
    lanes = primes[~full]
    large = np.repeat(lanes, fppoly.count_roots(fld.coefficients, lanes))
    rows = []                # (norm, p, residue degree, exponent)
    for st in splitting_types(fld, primes[full]):
        for f, _ in st.factors:
            norm, m = st.prime**f, 1
            while norm <= hi:
                if norm > lo:
                    rows.append((norm, st.prime, f, m))
                norm, m = norm * st.prime**f, m + 1
    ones = np.ones_like(large)
    table = np.concatenate([np.array(rows, dtype=np.int64).reshape(-1, 4),
                            np.stack([large, large, ones, ones], axis=1)])
    order = np.lexsort((table[:, 2], table[:, 0]))
    pos, base, deg, expo = table[order].T.copy()
    weights = deg * np.log(base.astype(np.float64))
    return _in_class((pos, base, expo.astype(np.int16), weights), cls)


def ideal_event_arrays(fld: NumberFieldSpec, lo: float, hi: float,
                       cls=sieve.EVERYTHING):
    """(positions, bases, exponents, weights) of the events with norm in
    (lo, hi] and in residue class cls; the weight of P^m is log N(P).

    A read that starts inside the field's store (lo <= its bound) and
    ends below STORE_BOUND slices it, first growing it to the next power
    of two above hi (at most STORE_BOUND and the sieve ceiling, which
    every read checks) by building only the new range; any other read
    builds (lo, hi] alone, in class cls, and keeps nothing.  A bad prime raises
    UnsupportedPrimeError if one of its powers, the norms of the ideals
    above it, lies in (lo, hi]."""
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    ceiling = sieve.check_capacity(hi)
    # integer positions: exact, and float keys would copy the whole store
    lo, hi = math.floor(lo), math.floor(hi)
    for p in sorted(fld.bad_primes):      # p^k <= hi needs k < bit_length
        if any(lo < p**k <= hi for k in range(1, hi.bit_length())):
            raise UnsupportedPrimeError(p, fld.name)
    key = (fld.coefficients, fld.field_disc)
    bound, arrays = _stores.get(key, (1, None))
    if hi > STORE_BOUND or lo > bound:
        return _build_events(fld, lo, hi, cls)
    if arrays is None or hi > bound:
        new_bound = int(min(max(1024, 1 << (hi - 1).bit_length()),
                            ceiling, STORE_BOUND))
        part = _build_events(fld, bound, new_bound)
        arrays = part if arrays is None else \
            [np.concatenate(pair) for pair in zip(arrays, part)]
        _stores[key] = (new_bound, arrays)
    i, j = np.searchsorted(arrays[0], [lo, hi], side="right")
    return _in_class([a[i:j] for a in arrays], cls)


def _reads_to(fld: NumberFieldSpec, x: float, cls, column: int):
    """One column of ideal_event_arrays (2 exponents, 3 weights) over
    norms in (1, x] (for Q, in class cls), in reads of at most STORE_BOUND
    norms: the first slices the store, and each later one is built and,
    as only its column is kept, dropped before the next is built."""
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x < 2:
        return
    sieve.check_capacity(x)             # before any read is built
    for lo in range(0, math.floor(x), STORE_BOUND):
        yield ideal_event_arrays(fld, max(lo, 1), min(lo + STORE_BOUND, x),
                                 cls)[column]


def psi_K(fld: NumberFieldSpec, x: float, cls=sieve.EVERYTHING) -> float:
    """Sum of log N(P) over prime-ideal powers with norm <= x (for Q, in
    residue class cls), exactly rounded: a weight w >= 1/2 is the whole
    number w 2^53 = a 2^26 + b over 2^53, with exact float limbs
    a = floor(w 2^27) and b = (w 2^27 - a) 2^26, summed as ints."""
    total = 0
    for w in _reads_to(fld, x, cls, 3):
        if not w.min(initial=0.5) >= 0.5:             # NaN fails too
            raise ArithmeticError("a weight below 1/2 has inexact limbs")
        limb = w * 2.0**27
        total += int(np.floor(limb, out=limb).sum(dtype=np.int64)) << 26  # a
        np.subtract(w, np.multiply(limb, 2.0**-27, out=limb), out=limb)
        total += int(np.multiply(limb, 2.0**53, out=limb).sum(dtype=np.int64))
    return total / 2**53


def pi_K(fld: NumberFieldSpec, x: float, cls=sieve.EVERYTHING) -> int:
    """Number of prime ideals with norm <= x (for Q, in class cls)."""
    return sum(int(np.count_nonzero(expo == 1))
               for expo in _reads_to(fld, x, cls, 2))


# ---------------------------------------------------------------------------
# presets

def load_presets() -> dict:
    """Parse the package's preset file: lines `name; n_K; d_K; c_0 c_1 ...
    c_{n-1}` (d_K signed; monic, constant term first, leading 1 implied).

    The presets are monogenic, so d_K is also the signed disc(f) and no
    prime divides the index: each is built directly, without sympy.
    """
    out = {}
    path = resources.files("primelab") / "data" / "field_presets.txt"
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [s.strip() for s in line.split(";")]
            if len(parts) != 4:
                raise ValueError(f"preset line {lineno}: expected 4 fields")
            name, n_str, d_str, coeff_str = parts
            coeffs = tuple(int(c) for c in coeff_str.split()) + (1,)
            n, d = int(n_str), int(d_str)
            if n != len(coeffs) - 1:
                raise ValueError(f"preset {name}: degree mismatch")
            out[name] = NumberFieldSpec(coeffs, n, d, abs(d), frozenset(),
                                        name)
    return out


_presets_cache = None


def _presets() -> dict:
    global _presets_cache
    if _presets_cache is None:
        _presets_cache = load_presets()
    return _presets_cache


def preset(name: str) -> NumberFieldSpec:
    try:
        return _presets()[name]
    except KeyError:
        raise KeyError(f"unknown field preset {name!r}; have "
                       f"{preset_names()}") from None


def preset_names() -> list:
    return sorted(_presets())
