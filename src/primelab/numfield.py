"""Number fields via a monic irreducible defining polynomial.

Every preset is abelian: a subfield of Q(zeta_m) fixed by a subgroup H
of (Z/m)^*, so the splitting of a prime follows from the conductor m
and H alone (Artin reciprocity), one table entry per residue class mod
m.  A field from `NumberFieldSpec.from_poly` reads its splitting off
the factorization of the polynomial mod p (Dedekind's theorem): only
the degrees of the factors matter, and `fppoly.degree_counts` finds
them for a whole array of primes in one batched Frobenius pass; a read
of norms up to hi needs them only below sqrt(hi), as above it each
distinct root of f mod p, ramified or not, is one ideal of norm p.
Primes dividing the index [O_K : Z[theta]] are rejected with
UnsupportedPrimeError rather than handled; the shipped presets are all
monogenic, so this only bites user-supplied polynomials.

Every read makes one store lookup, which checks it and slices one store
per field, grown by doubling up to STORE_BOUND.  A store keeps 10 B per
event, int64 positions and int16 exponents, and no weights: an event's
weight is log of its norm, save for the few rows `sieve.merge_events`
writes (the ideals above the primes up to sqrt(hi)), whose slots and
weights it keeps beside.  `_read` returns a read unweighed (Q's with a
residue class kept), and builds what the store does not hold;
`ideal_event_arrays` weighs it with `sieve.weigh`, and
`first_power_count` counts prime ideals in one mask over the slice's
views, so neither a growth nor a count makes weights.  `sweep` reads a
long range at most READ_PIECE norms at a time, so its peak is the store
and one read; the totals `psi_K` and `pi_K` sweep (1, x], `psi_K`
exactly in integer fixed point.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
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


def dedekind_index_test(coefficients, p: int) -> bool:
    """True iff p does not divide the index [O_K : Z[theta]].

    Dedekind's criterion: with f = prod g_i^{e_i} mod p, g = prod g_i and
    h = f/g mod p, the test passes iff gcd(g, h, (g*h* - f)/p) = 1 in F_p,
    where g*, h* are lifts of g, h.  Both come from the squarefree
    decomposition f = prod s_j^j mod p: g = prod s_j, h = prod s_j^(j-1).
    """
    from sympy.polys.domains import ZZ   # heavyweight; imported on demand
    from sympy.polys.galoistools import (gf_from_int_poly, gf_gcd, gf_mul,
                                         gf_sqf_list, gf_sub)
    f = [int(c) for c in reversed(coefficients)]    # leading term first
    g = h = [1]
    for part, mult in gf_sqf_list(gf_from_int_poly(f, p), p, ZZ)[1]:
        g = gf_mul(g, part, p, ZZ)
        for _ in range(mult - 1):
            h = gf_mul(h, part, p, ZZ)
    # g*h - f is needed only mod p^2: its quotient by p is read mod p
    q = p * p
    diff = gf_sub(gf_mul(g, h, q, ZZ), gf_from_int_poly(f, q), q, ZZ)
    if any(d % p for d in diff):
        raise ArithmeticError("g*h != f mod p; decomposition bug")
    fbar = [d // p for d in diff]
    return len(gf_gcd(gf_gcd(fbar, g, p, ZZ), h, p, ZZ)) <= 1


@dataclass(frozen=True)
class SplittingType:
    """Prime ideals above p as pairs (residue degree f, ramification e)."""

    prime: int
    factors: tuple

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
    # a preset's conductor m and generators of the subgroup H of (Z/m)^*
    # fixing it; None and () for a field from from_poly
    conductor: int | None = field(default=None, compare=False)
    subgroup: tuple = field(default=(), compare=False)

    @classmethod
    def from_poly(cls, coefficients, field_disc=None,
                  name="") -> "NumberFieldSpec":
        coeffs = tuple(int(c) for c in coefficients)
        n = len(coeffs) - 1
        if n < 1 or coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic, deg >= 1")
        if not _sympy_poly(coeffs).is_irreducible:
            raise ValueError(f"{list(coeffs)} is reducible over Q")
        disc = poly_discriminant(coeffs)     # nonzero: f is irreducible
        from sympy import factorint
        bad = frozenset(p for p, k in factorint(abs(disc)).items()
                        if k >= 2 and not dedekind_index_test(coeffs, p))
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


def splitting_type(fld: NumberFieldSpec, p: int) -> SplittingType:
    """Splitting of the rational prime p.  For a field from from_poly one
    prime costs a whole kernel pass; split many with splitting_types."""
    return splitting_types(fld, [p])[0]


def splitting_types(fld: NumberFieldSpec, primes) -> list:
    """splitting_type of each prime: a preset's from its table, read at
    p mod m; otherwise via Dedekind's theorem, where f is squarefree mod
    the primes not dividing disc f, which go through the Frobenius kernel
    as one batch."""
    primes = [int(p) for p in primes]
    for p in primes:
        if p in fld.bad_primes:
            raise UnsupportedPrimeError(p, fld.name)
    if fld.conductor is not None:
        table = _abelian_splitting(fld.conductor, fld.subgroup)
        out = [SplittingType(p, table[p % fld.conductor]) for p in primes]
    else:
        lanes = [p for p in primes if fld.poly_disc % p]
        counts = dict(zip(lanes, fppoly.degree_counts(
            fld.coefficients, np.array(lanes, dtype=object),
            fld.degree).tolist()))
        out = [SplittingType(p, tuple(
            fppoly.factor_degree_multiset(fld.coefficients, p)
            if p not in counts else
            [(d, 1) for d, c in enumerate(counts[p], 1) for _ in range(c)]))
            for p in primes]
    for st in out:
        if st.degree_sum != fld.degree:
            raise ArithmeticError(
                f"splitting degrees at p={st.prime} sum to {st.degree_sum}, "
                f"expected {fld.degree}")
    return out


def _subgroup(m: int, gens) -> set:
    """The subgroup of (Z/m)^* that gens generate: the group is abelian,
    so <A, g> is A<g>, A times the powers of g."""
    group = {1 % m}
    for g in gens:
        while not (more := {x * g % m for x in group}) <= group:
            group |= more
    return group


@functools.cache
def _abelian_splitting(m: int, gens: tuple) -> tuple:
    """SplittingType factors for each residue class mod m, in the field
    fixed by H = <gens> in (Z/m)^* (Artin reciprocity; Washington,
    Introduction to Cyclotomic Fields, Thm 2.13 and ch. 3).  For p in the
    class, write m = p^k m' (k = 0 if p does not divide m).  The inertia
    group I = {u = 1 mod m'} gives e = |IH/H|, and f is the order modulo
    IH of the units u = p mod m' (one coset of I): for p not dividing m,
    the order of p in (Z/m)^*/H; for m' = 1, p is totally ramified.  A
    class that holds no prime gets ()."""
    units = [u for u in range(m) if math.gcd(u, m) == 1]
    H = _subgroup(m, gens)
    table = []
    for r in range(m):
        p = math.gcd(r, m)          # 1, or the one prime class r may hold
        if p > 1 and (p % m != r or any(p % d == 0 for d in range(2, p))):
            table.append(())
            continue
        rest = m // math.gcd(m, p ** m.bit_length())    # m' = m / p^k
        IH = _subgroup(m, gens + tuple(u for u in units
                                       if (u - 1) % rest == 0))
        frob = next(u for u in units if (u - r) % rest == 0)
        e, f, x = len(IH) // len(H), 1, frob
        while x not in IH:              # f: the order of frob mod IH
            f, x = f + 1, x * frob % m
        table.append(((f, e),) * (len(units) // (len(H) * e * f)))
    return tuple(table)


# one store per field: (bound, columns) holding every event with norm <=
# bound, unweighed (positions, exponents, rows' slots, rows' weights)
_stores: dict = {}

# largest bound a store grows to: Q's then holds 1.1M events (10 B each)
STORE_BOUND = 2**24
# most norms one read of a sweep spans (never more than STORE_BOUND)
READ_PIECE = 2**21


def _root_counts(fld: NumberFieldSpec, primes):
    """Ideals of norm p above each prime p not dividing the index,
    ramified or not: a preset's by one gather from its table, another
    field's from the kernel's count of the distinct roots of f mod p, one
    per linear factor (Dedekind-Kummer)."""
    if fld.conductor is None:
        return fppoly.count_roots(fld.coefficients, primes)
    classes = _abelian_splitting(fld.conductor, fld.subgroup)
    return np.array([[f for f, _ in t].count(1) for t in classes],
                    dtype=np.int64)[primes % fld.conductor]


def _build_events(fld: NumberFieldSpec, lo: int, hi: int,
                  cls=sieve.EVERYTHING):
    """(positions, exponents, slots, row weights), as `sieve.merge_events`
    gives them, of the ideal-power events with norm in (lo, hi] and in
    class cls, ascending; equal norms (one prime's) in ascending residue
    degree.  Q's are `sieve.event_arrays`.

    A prime above sqrt(hi) has in range only its ideals of norm p, so the
    primes of cls in (max(lo, sqrt(hi)), hi] enter `sieve.merge_events`'
    stream once per such ideal (`_root_counts`, read for all at once);
    the ideals above the primes up to sqrt(hi) (from the base-prime
    cache) come from `_small_ideals`.  Bad primes are left out: reads
    holding one of their powers raise.
    """
    if fld.degree == 1:
        return sieve.event_arrays(lo, hi, cls)
    root, bad = math.isqrt(hi), sorted(fld.bad_primes)
    # before the stream, so that no temporary of theirs sits beside it
    primes, degrees = _small_ideals(fld, np.setdiff1d(
        sieve.base_primes(root), bad, assume_unique=True))
    return sieve.merge_events(_root_stream(fld, max(lo, root), hi, cls, bad),
                              primes, degrees, lo, hi, cls)


def _small_ideals(fld: NumberFieldSpec, primes):
    """(p, f) of each ideal above the primes, as two arrays: a preset's
    from its table, one class mod m at a time, another field's from
    `splitting_types`."""
    if fld.conductor is None:
        return np.array([(st.prime, f) for st in splitting_types(fld, primes)
                         for f, _ in st.factors],
                        dtype=np.int64).reshape(-1, 2).T
    m = fld.conductor
    parts = [(np.repeat(p, len(t)),
              np.tile(np.array([f for f, _ in t], np.int64), len(p)))
             for r, t in enumerate(_abelian_splitting(m, fld.subgroup)) if t
             for p in (primes[primes % m == r],)]
    return [np.concatenate(column) for column in zip(*parts)]


def _root_stream(fld: NumberFieldSpec, lo, hi, cls, bad):
    """The merge's stream: each prime of cls in (lo, hi] but the bad ones,
    once per ideal of norm p above it.  The primes alone are freed on
    return, before the merge runs."""
    lanes = np.setdiff1d(sieve.sieve_primes(lo, hi, cls), bad,
                         assume_unique=True)
    return np.repeat(lanes, _root_counts(fld, lanes))


def _store(fld: NumberFieldSpec):
    """(bound, columns) of the field's store; (1, None) while empty."""
    return _stores.get((fld.coefficients, fld.field_disc), (1, None))


def _lookup(fld: NumberFieldSpec, lo: float, hi: float):
    """The checks of every read of (lo, hi] (range, ceiling, bad primes);
    then lo and hi floored, the field's `_store`, and the index range
    (i, j) of the read in its columns, or None (past its bound or
    STORE_BOUND)."""
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    sieve.check_capacity(hi)
    # integer positions: exact, and float keys would copy the whole store
    lo, hi = math.floor(lo), math.floor(hi)
    if fld.bad_primes:
        for p in sorted(fld.bad_primes):  # p^k <= hi needs k < bit_length
            if any(lo < p**k <= hi for k in range(1, hi.bit_length())):
                raise UnsupportedPrimeError(p, fld.name)
    store = bound, columns = _store(fld)
    if columns is None or hi > min(bound, STORE_BOUND):
        return lo, hi, store, None
    # Python ints: numpy scalar bounds slice more slowly
    return lo, hi, store, columns[0].searchsorted((lo, hi),
                                                  side="right").tolist()


def _read(fld: NumberFieldSpec, lo: float, hi: float, cls=sieve.EVERYTHING):
    """(positions, exponents, slots, row weights) of the events with norm
    in (lo, hi] and in class cls, unweighed (`sieve.weigh` gives their
    weights).

    A read that starts inside the field's store (lo <= its bound) and
    ends below STORE_BOUND slices it, first growing it to the next power
    of two above hi (at most STORE_BOUND and the sieve ceiling) by
    building only the new range; any other read builds (lo, hi] alone,
    in class cls, and keeps nothing: every build is made here.  A store
    holds positions and exponents, and the rows' slots (a growth offsets
    the new part's by the store's length) and weights; a slice keeps the
    rows whose slots lie in it, a class the rows in the class."""
    lo, hi, (bound, columns), span = _lookup(fld, lo, hi)
    if span is None:
        if hi > STORE_BOUND or lo > bound:
            return _build_events(fld, lo, hi, cls)
        new_bound = int(min(max(1024, 1 << (hi - 1).bit_length()),
                            sieve.CEILING.get(), STORE_BOUND))
        part = _build_events(fld, bound, new_bound)
        if columns is not None:
            np.add(part[2], len(columns[0]), out=part[2])   # its slots
            part = [np.concatenate(pair) for pair in zip(columns, part)]
        columns = part
        _stores[fld.coefficients, fld.field_disc] = new_bound, columns
        span = columns[0].searchsorted((lo, hi), side="right").tolist()
    i, j = span
    pos, expo, slots, row_weights = columns
    k, m = slots.searchsorted((i, j)).tolist()
    pos, expo, slots = pos[i:j], expo[i:j], slots[k:m] - i
    if cls.modulus == 1:
        return pos, expo, slots, row_weights[k:m]
    keep = (pos % cls.modulus == cls.residue).nonzero()[0]
    rows = (pos[slots] % cls.modulus == cls.residue).nonzero()[0]
    return (pos.take(keep), expo.take(keep),
            keep.searchsorted(slots.take(rows)), row_weights[k:m].take(rows))


def ideal_event_arrays(fld: NumberFieldSpec, lo: float, hi: float,
                       cls=sieve.EVERYTHING):
    """(positions, exponents, weights) of the events with norm in (lo, hi]
    and in residue class cls, int64, int16 and float64; the weight of P^m
    is log N(P).  The events of `_read`, weighed: a read the store holds
    returns views of its positions and exponents.  A bad prime raises
    UnsupportedPrimeError if one of its powers, the norms of the ideals
    above it, lies in (lo, hi]."""
    pos, expo, slots, row_weights = _read(fld, lo, hi, cls)
    return pos, expo, sieve.weigh(pos, slots, row_weights)


def first_power_count(fld: NumberFieldSpec, lo: float, hi: float,
                      cls=sieve.EVERYTHING) -> int:
    """The exponents 1 (prime ideals) `ideal_event_arrays` would read,
    counted in one mask over the store's views, or over the unweighed
    `_read` of the checked bounds if the store does not hold them."""
    lo, hi, (_, columns), span = _lookup(fld, lo, hi)
    if span is None:
        pos, expo = _read(fld, lo, hi, cls)[:2]
    else:
        i, j = span
        pos, expo = columns[0][i:j], columns[1][i:j]
    first = expo == 1
    if cls.modulus != 1:
        first &= pos % cls.modulus == cls.residue
    return int(np.count_nonzero(first))


def read_edges(lo: float, hi: float) -> list:
    """The edges of (lo, hi] cut at the multiples of s = min(READ_PIECE,
    STORE_BOUND) norms: lo, the multiples between, and hi.  CapacityError
    if hi passes the sieve ceiling, before any edge is made."""
    sieve.check_capacity(hi)
    step = min(READ_PIECE, STORE_BOUND)
    return [lo, *range(math.floor(lo) // step * step + step, math.ceil(hi),
                       step), hi]


def sweep(fld: NumberFieldSpec, edges, cls=sieve.EVERYTHING):
    """ideal_event_arrays over each (edges[i], edges[i + 1]] in turn, the
    edges ascending from 1 on, so that a sweep holds one read and the
    store at a time.  A sweep that starts inside the store first grows it
    to min(edges[-1], STORE_BOUND) with one unweighed `_read` of views:
    grown a read at a time, each growth would copy the whole store."""
    if math.floor(edges[0]) <= _store(fld)[0]:
        _read(fld, edges[0], min(edges[-1], STORE_BOUND))
    for lo, hi in itertools.pairwise(edges):
        yield ideal_event_arrays(fld, lo, hi, cls)


def _reads_to(fld: NumberFieldSpec, x: float, cls, column: int):
    """One column of the `sweep` of (1, x] (for Q, in class cls: 1
    exponents, 2 weights); as only the column is kept (map holds no
    read), each read is dropped before the next is built."""
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x < 2:
        return
    yield from map(operator.itemgetter(column),
                   sweep(fld, read_edges(1, x), cls))


def psi_K(fld: NumberFieldSpec, x: float, cls=sieve.EVERYTHING) -> float:
    """Sum of log N(P) over prime-ideal powers with norm <= x (for Q, in
    residue class cls), exactly rounded: a weight w >= 1/2 is the whole
    number w 2^53 = a 2^26 + b over 2^53, with exact float limbs
    a = floor(w 2^27) and b = (w 2^27 - a) 2^26, summed as ints."""
    total = 0
    for w in _reads_to(fld, x, cls, 2):
        if not w.min(initial=0.5) >= 0.5:             # NaN fails too
            raise ArithmeticError("a weight below 1/2 has inexact limbs")
        limb = w * 2.0**27
        total += int(np.floor(limb, out=limb).sum(dtype=np.int64)) << 26  # a
        np.subtract(w, np.multiply(limb, 2.0**-27, out=limb), out=limb)
        total += int(np.multiply(limb, 2.0**53, out=limb).sum(dtype=np.int64))
        del w, limb                     # before the next read is built
    return total / 2**53


def pi_K(fld: NumberFieldSpec, x: float, cls=sieve.EVERYTHING) -> int:
    """Number of prime ideals with norm <= x (for Q, in class cls)."""
    # map, unlike a generator expression, drops each read before the next
    return sum(map(lambda expo: int(np.count_nonzero(expo == 1)),
                   _reads_to(fld, x, cls, 1)))


# ---------------------------------------------------------------------------
# presets

def load_presets() -> dict:
    """Parse the package's preset file: lines `name; n_K; d_K; c_0 c_1 ...
    c_{n-1}; m; h_1 h_2 ...` (d_K signed; monic, constant term first,
    leading 1 implied; conductor m and generators of H in (Z/m)^*).

    The presets are monogenic, so d_K is also the signed disc(f) and no
    prime divides the index: each is built directly, without sympy.  A
    line whose generators are not units mod m, or whose n_K is not
    phi(m)/|H|, raises ValueError.
    """
    out = {}
    path = resources.files("primelab") / "data" / "field_presets.txt"
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [s.strip() for s in line.split(";")]
            if len(parts) != 6:
                raise ValueError(f"preset line {lineno}: expected 6 fields")
            name, n_str, d_str, coeff_str, m_str, gens_str = parts
            coeffs = tuple(int(c) for c in coeff_str.split()) + (1,)
            n, d, m = int(n_str), int(d_str), int(m_str)
            gens = tuple(int(g) % m for g in gens_str.split())
            if n != len(coeffs) - 1:
                raise ValueError(f"preset {name}: degree mismatch")
            if any(math.gcd(g, m) != 1 for g in gens):
                raise ValueError(f"preset line {lineno}: a generator of H "
                                 f"is not a unit mod {m}")
            if n * len(_subgroup(m, gens)) != sieve.euler_phi(m):
                raise ValueError(f"preset line {lineno}: n_K = {n} is not "
                                 f"phi({m})/|H|")
            out[name] = NumberFieldSpec(coeffs, n, d, abs(d), frozenset(),
                                        name, m, gens)
    return out


@functools.cache
def _presets() -> dict:
    return load_presets()


def preset(name: str) -> NumberFieldSpec:
    try:
        return _presets()[name]
    except KeyError:
        raise KeyError(f"unknown field preset {name!r}; have "
                       f"{preset_names()}") from None


def preset_names() -> list:
    return sorted(_presets())
