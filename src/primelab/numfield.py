"""Number fields via a monic irreducible defining polynomial.

Prime-ideal splitting is read off the factorization of the polynomial
mod p (Dedekind's theorem).  Primes dividing the index [O_K : Z[theta]]
are rejected with UnsupportedPrimeError rather than handled; the shipped
presets are all monogenic, so this only bites user-supplied polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import fppoly, sieve
from .errors import CapacityError, UnsupportedPrimeError


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


def factor_degrees_mod_p(coefficients, p: int):
    """Multiset of (degree, multiplicity) for the irreducible factors of
    f mod p, one entry per factor."""
    return fppoly.factor_degree_multiset(list(coefficients), p)


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
    """Splitting of the rational prime p via Dedekind's theorem."""
    if p in fld.bad_primes:
        raise UnsupportedPrimeError(p, fld.name)
    degrees = factor_degrees_mod_p(fld.coefficients, p)
    st = SplittingType(prime=p, factors=tuple((d, m) for d, m in degrees))
    if st.degree_sum != fld.degree:
        raise ArithmeticError(
            f"splitting degrees at p={p} sum to {st.degree_sum}, "
            f"expected {fld.degree}")
    return st


@dataclass(frozen=True)
class IdealPowerEvent:
    """A prime-ideal power P^m with N(P^m) = position."""

    position: int
    base: int                # rational prime below P
    residue_degree: int
    exponent: int
    weight: float            # log N(P) = residue_degree * log(base)


# one store per field: (bound, arrays) holding every event with norm <= bound
_stores: dict = {}


def _bucket(hi: float) -> int:
    b = 1024
    while b < hi:
        b *= 2
    return b


def _build_events(fld: NumberFieldSpec, lo: int, hi: int, *, ceiling: int):
    """All ideal-power events with norm in (lo, hi], ascending.

    A prime p in (sqrt(hi), lo] has no norm in (lo, hi] and is skipped.
    Large unramified primes only ever contribute norm-p events, so for
    p > sqrt(hi) we count roots of f mod p instead of running the full
    distinct-degree factorization.
    """
    if fld.degree == 1:
        pos, base, expo, weights = sieve.event_arrays(lo, hi, ceiling=ceiling)
        return pos, base, np.ones(len(pos), dtype=np.int64), expo, weights
    rows = []                # (norm, p, residue degree, exponent)
    split_bound = math.isqrt(hi)
    for p in sieve.sieve_primes(1, hi, ceiling=ceiling):
        p = int(p)
        if p in fld.bad_primes or split_bound < p <= lo:
            continue  # bad primes are excluded; queries touching p raise
        if p > split_bound and fld.poly_disc % p != 0:
            factors = [(1, 1)] * fppoly.count_roots(list(fld.coefficients), p)
        else:
            factors = splitting_type(fld, p).factors
        for f, _e in factors:
            norm, m = p**f, 1
            while norm <= hi:
                if norm > lo:
                    rows.append((norm, p, f, m))
                norm, m = norm * p**f, m + 1
    table = np.array(rows, dtype=np.int64).reshape(-1, 4)
    order = np.argsort(table[:, 0], kind="stable")
    pos, base, deg, expo = table[order].T.copy()
    weights = deg * np.log(base.astype(np.float64))
    return pos, base, deg, expo, weights


def _cached_events(fld: NumberFieldSpec, lo: float, hi: float,
                   ceiling: int):
    """(positions, bases, degrees, exponents, weights) for events with
    norm in (lo, hi], sliced from the field's store.  A store that ends
    below hi grows to the next power-of-two bound (capped at the
    ceiling); only the new norm range is built."""
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    for p in sorted(fld.bad_primes):
        if p <= hi:
            raise UnsupportedPrimeError(p, fld.name)
    if hi > ceiling:
        raise CapacityError(f"hi={hi} exceeds ceiling {ceiling}")
    key = (fld.coefficients, fld.field_disc)
    bound, arrays = _stores.get(key, (1, None))
    if hi > bound:
        new_bound = int(min(_bucket(hi), ceiling))
        part = _build_events(fld, bound, new_bound, ceiling=ceiling)
        arrays = part if arrays is None else \
            [np.concatenate(pair) for pair in zip(arrays, part)]
        _stores[key] = (new_bound, arrays)
    i = np.searchsorted(arrays[0], lo, side="right")
    j = np.searchsorted(arrays[0], hi, side="right")
    return [a[i:j] for a in arrays]


def ideal_event_arrays(fld: NumberFieldSpec, lo: float, hi: float, *,
                       ceiling: int = sieve.DEFAULT_CEILING):
    """(positions, weights, exponents, first_power_mask) for events with
    norm in (lo, hi]."""
    pos, _, _, expo, weights = _cached_events(fld, lo, hi, ceiling)
    return pos, weights, expo, expo == 1


def prime_ideal_events(fld: NumberFieldSpec, lo: float, hi: float, *,
                       ceiling: int = sieve.DEFAULT_CEILING):
    """Ascending list of IdealPowerEvent with norm in (lo, hi]."""
    return [IdealPowerEvent(int(n), int(p), int(f), int(m), float(w))
            for n, p, f, m, w in zip(*_cached_events(fld, lo, hi, ceiling))]


def psi_K(fld: NumberFieldSpec, x: float, *,
          ceiling: int = sieve.DEFAULT_CEILING) -> float:
    """Sum of log N(P) over prime-ideal powers with norm <= x."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x < 2:
        return 0.0
    _, weights, _, _ = ideal_event_arrays(fld, 1, x, ceiling=ceiling)
    return math.fsum(weights)


def pi_K(fld: NumberFieldSpec, x: float, *,
         ceiling: int = sieve.DEFAULT_CEILING) -> int:
    """Number of prime ideals with norm <= x."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x < 2:
        return 0
    _, _, _, first = ideal_event_arrays(fld, 1, x, ceiling=ceiling)
    return int(np.count_nonzero(first))


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
