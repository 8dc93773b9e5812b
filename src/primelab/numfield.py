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

Every read goes through `_spans`, which checks it and alone chooses
between building it and slicing one store per field, grown by doubling
up to STORE_BOUND.  A store is a list of pieces cut at the multiples of
min(READ_PIECE, STORE_BOUND) norms, the edges `read_edges` cuts a sweep
at, so a growth builds only its new range, a piece at a time, and
copies no earlier piece.  A piece keeps 6 B per event, int32 norms and
int16 exponents, and no weights: an event's weight is log of its norm,
save for the few rows `sieve.merge_events` writes (the ideals above the
primes up to sqrt(hi)), whose slots in the piece and weights it keeps
beside.  `ideal_event_arrays` takes a build as it is or joins the store
slices (Q's with a residue class kept), widens the positions to int64
and weighs them with `sieve.weigh`, while `first_power_count` and
`first_powers` mask each span's int32 views, so neither a growth nor a
count makes weights.  Every class mask of a read, and the table gathers
of a preset's primes, take their residues from `_residues`, by floor
division (which numpy runs at divide-by-constant speed) on all but the
shortest arrays.  The totals `psi_K` and `pi_K` read (1, x] at most
READ_PIECE norms at a time, so their peak is the store and one read,
`psi_K` exact in integer fixed point and `pi_K` by counts alone.
"""

from __future__ import annotations

import bisect
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
    coeffs = [operator.index(c) for c in coefficients]
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
                                         gf_pow, gf_sqf_list, gf_sub)
    p = operator.index(p)
    f = list(map(operator.index, reversed(coefficients)))  # leading first
    g = h = [1]
    for part, mult in gf_sqf_list(gf_from_int_poly(f, p), p, ZZ)[1]:
        g = gf_mul(g, part, p, ZZ)
        h = gf_mul(h, gf_pow(part, mult - 1, p, ZZ), p, ZZ)
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
        coeffs = tuple(map(operator.index, coefficients))
        n = len(coeffs) - 1
        if n < 1 or coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic, deg >= 1")
        if not _sympy_poly(coeffs).is_irreducible:
            raise ValueError(f"{list(coeffs)} is reducible over Q")
        disc = poly_discriminant(coeffs)     # nonzero: f is irreducible
        from sympy import factorint
        # the primes that may divide the index, whose square divides disc
        square = [p for p, k in factorint(abs(disc)).items() if k >= 2]
        bad = frozenset(p for p in square
                        if not dedekind_index_test(coeffs, p))
        if field_disc is None:
            if bad:
                raise ValueError(
                    f"index divisible by {sorted(bad)}; supply field_disc")
            field_disc = abs(disc)
        field_disc = operator.index(field_disc)
        if field_disc < 1 or abs(disc) % field_disc != 0:
            raise ValueError(f"field_disc {field_disc} does not divide "
                             f"|disc(f)| = {abs(disc)}")
        quot = abs(disc) // field_disc
        index = math.isqrt(quot)            # disc(f) = index^2 d_K
        if index ** 2 != quot:
            raise ValueError(
                f"|disc(f)|/field_disc = {quot} is not a perfect square")
        if {p for p in square if index % p == 0} != bad:
            raise ValueError(
                f"field_disc {field_disc} gives the index {index}, but "
                f"Dedekind's criterion finds the index primes {sorted(bad)}")
        if disc // quot % 4 > 1:
            raise ValueError(f"field_disc {field_disc} gives d_K = "
                             f"{disc // quot}, not 0 or 1 mod 4 "
                             f"(Stickelberger)")
        return cls(coeffs, n, disc, field_disc, bad, name)

    @property
    def log_disc(self) -> float:
        return math.log(self.field_disc)


def splitting_type(fld: NumberFieldSpec, p: int) -> SplittingType:
    """Splitting of the rational prime p, an integer (else TypeError) that
    is prime (else ValueError).  For a field from from_poly one prime
    costs a whole kernel pass; split many with splitting_types."""
    from sympy import isprime   # heavyweight; imported on demand
    if not isprime(p := operator.index(p)):
        raise ValueError(f"p must be prime, got {p}")
    return splitting_types(fld, [p])[0]


def splitting_types(fld: NumberFieldSpec, primes) -> list:
    """splitting_type of each prime: a preset's from its table, read at
    p mod m; otherwise via Dedekind's theorem, where f is squarefree mod
    the primes not dividing disc f, which go through the Frobenius kernel
    as one batch."""
    primes = list(map(operator.index, primes))
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


# one store per field: (bound, pieces), every event with norm <= bound,
# unweighed, cut at the multiples of min(READ_PIECE, STORE_BOUND) norms
# (the edges `read_edges` cuts a sweep at, so each read of a sweep lies
# in one piece); a piece is (top, norms, exponents, rows' slots, rows'
# weights) of the events with norm in (the previous piece's top, top]
_stores: dict = {}

# largest bound a store grows to: Q's then holds 1.1M events (6 B each),
# its norms int32, exact as STORE_BOUND < 2^31
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
                    dtype=np.int64)[_residues(primes, fld.conductor)]


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
    residues = _residues(primes, m)
    parts = [(np.repeat(p, len(t)),
              np.tile(np.array([f for f, _ in t], np.int64), len(p)))
             for r, t in enumerate(_abelian_splitting(m, fld.subgroup)) if t
             for p in (primes[residues == r],)]
    return [np.concatenate(column) for column in zip(*parts)]


def _root_stream(fld: NumberFieldSpec, lo, hi, cls, bad):
    """The merge's stream: each prime of cls in (lo, hi] but the bad ones,
    once per ideal of norm p above it.  The primes alone are freed on
    return, before the merge runs."""
    lanes = np.setdiff1d(sieve.sieve_primes(lo, hi, cls), bad,
                         assume_unique=True)
    return np.repeat(lanes, _root_counts(fld, lanes))


def _store(fld: NumberFieldSpec):
    """(bound, pieces) of the field's store; (1, []) while empty."""
    return _stores.get((fld.coefficients, fld.field_disc), (1, []))


_top = operator.itemgetter(0)            # a piece's top


def _spans(fld: NumberFieldSpec, lo: float, hi: float, cls) -> list:
    """The checks of every read of (lo, hi] (range, ceiling, bad primes),
    and the one choice between store and build.  A read that starts past
    the field's store (lo > its bound) or ends past STORE_BOUND gets one
    span ((hi, *build), 0, None) of (lo, hi] built alone, in class cls,
    which keeps nothing; any other first grows the store to hi (`_grow`)
    if it must, and gets its spans (piece, i, j), its events being
    piece[1][i:j], in each store piece it meets (found by bisecting the
    pieces' tops)."""
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    sieve.check_capacity(hi)
    # integer positions: exact, and float keys would copy a piece
    lo, hi = math.floor(lo), math.floor(hi)
    if fld.bad_primes:
        for p in sorted(fld.bad_primes):  # p^k <= hi needs k < bit_length
            if any(lo < p**k <= hi for k in range(1, hi.bit_length())):
                raise UnsupportedPrimeError(p, fld.name)
    bound, pieces = _store(fld)
    if hi > STORE_BOUND or lo > bound:
        return [((hi, *_build_events(fld, lo, hi, cls)), 0, None)]
    if hi > bound or not pieces:
        bound, pieces = _grow(fld, bound, pieces, hi)
    # the pieces that (lo, hi] meets, by their tops; an empty read gets one
    last = bisect.bisect_left(pieces, hi, key=_top)
    keys = np.array((lo, hi), np.int32)     # int64 keys would copy a piece
    spans = []
    for piece in pieces[bisect.bisect_right(pieces, lo, 0, last, key=_top):
                        last + 1]:
        i, j = piece[1].searchsorted(keys, side="right").tolist()
        spans.append((piece, i, j))
    return spans


def _slice(piece, i: int, j: int):
    """The events piece[1][i:j] as a read: views of the norms and
    exponents, and the rows whose slots lie in the slice."""
    _, pos, expo, slots, row_weights = piece
    k, m = slots.searchsorted((i, j)).tolist()
    return pos[i:j], expo[i:j], slots[k:m] - i, row_weights[k:m]


def _join(reads):
    """One read of consecutive reads, each (positions, exponents, slots,
    row weights): the columns joined, each read's slots offset by the
    events before it.  A single read is returned as it is."""
    if len(reads) == 1:
        return reads[0]
    pos, expo, slots, row_weights = zip(*reads)
    offsets = itertools.accumulate(map(len, pos[:-1]), initial=0)
    return (np.concatenate(pos), np.concatenate(expo),
            np.concatenate([s + n for s, n in zip(slots, offsets)]),
            np.concatenate(row_weights))


# fewest values `_residues` takes by floor division; below it `%` wins.
# timeit of the two forms on a sorted store read mod 22 (numpy 2.4.6, a
# 2-core Xeon), the time of `%` over the division form's, int32 / int64:
#   64: 0.62 / 0.64   256: 0.75 / 0.88   512: 0.90 / 1.02
#   1000: 1.18 / 1.51   3000: 1.98 / 1.84   10^4: 2.83 / 2.25
#   1.28e5: 3.48 / 2.00
# numpy divides an integer array by a scalar through libdivide, but has
# no such path for the remainder; below the crossover the division
# form's two extra calls cost more than it saves
RESIDUE_CROSSOVER = 512


def _residues(values, q: int):
    """The nonnegative integer array values mod q, for 1 <= q < 2^63,
    in values' dtype.  At or above RESIDUE_CROSSOVER values it is
    values - (values // q) q, worked in place in the one temporary
    values // q, no term larger than values (so int32 cannot overflow);
    below, values % q.  A modulus past int32 leaves each int32 value its
    own residue, so values itself is returned."""
    if q >> 31 and values.dtype == np.int32:
        return values
    if len(values) < RESIDUE_CROSSOVER:
        return values % q
    out = values // q
    out *= q
    return np.subtract(values, out, out=out)


def _in_class(pos, cls):
    """The mask of the positions in class cls: their `_residues` mod q
    equal to a."""
    return _residues(pos, cls.modulus) == cls.residue


def _grow(fld: NumberFieldSpec, bound: int, pieces: list, hi: int):
    """Grow the store's pieces from bound to the next power of two above
    hi (at least 1024, at most the sieve ceiling and STORE_BOUND): each
    new range between the edges `read_edges` cuts is built alone, its
    norms made int32, and joins the last piece if that ends off an edge;
    every earlier piece is kept as it is.  Returns the new (bound,
    pieces)."""
    new_bound = int(min(max(1024, 1 << (hi - 1).bit_length()),
                        sieve.CEILING.get(), STORE_BOUND))
    step, pieces = min(READ_PIECE, STORE_BOUND), list(pieces)
    for lo, top in itertools.pairwise(read_edges(bound, new_bound)):
        pos, *rest = _build_events(fld, lo, top)
        part = (pos.astype(np.int32), *rest)
        if lo % step and pieces:
            part = _join([pieces.pop()[1:], part])
        pieces.append((top, *part))
    _stores[fld.coefficients, fld.field_disc] = new_bound, pieces
    return new_bound, pieces


def _keep(read, cls):
    """The events of a read in class cls, and the rows among them."""
    pos, expo, slots, row_weights = read
    mask = _in_class(pos, cls)
    keep, rows = mask.nonzero()[0], mask.take(slots).nonzero()[0]
    return (pos.take(keep), expo.take(keep),
            keep.searchsorted(slots.take(rows)), row_weights.take(rows))


def ideal_event_arrays(fld: NumberFieldSpec, lo: float, hi: float,
                       cls=sieve.EVERYTHING):
    """(positions, exponents, weights) of the events with norm in (lo, hi]
    and in residue class cls, int64, int16 and float64; the weight of P^m
    is log N(P).  A build (`_spans`) is taken as it is; store slices keep
    the class's events and rows (`_keep`) and are joined, so a read inside
    one piece returns a view of its exponents.  The positions are widened
    to int64 and weighed (`sieve.weigh`).  A bad prime raises
    UnsupportedPrimeError if one of its powers, the norms of the ideals
    above it, lies in (lo, hi]."""
    spans = _spans(fld, lo, hi, cls)
    if spans[0][2] is None:             # built alone, in class cls
        reads = [spans[0][0][1:]]
    else:
        reads = [_slice(*span) for span in spans]
        if cls.modulus != 1:
            reads = [_keep(read, cls) for read in reads]
    pos, expo, slots, row_weights = _join(reads)
    del spans, reads                    # before the weights are made
    pos = pos.astype(np.int64, copy=False)
    return pos, expo, sieve.weigh(pos, slots, row_weights)


def _first(pos, expo, cls):
    """The mask of the exponents 1 in class cls."""
    first = expo == 1
    if cls.modulus != 1:
        first &= _in_class(pos, cls)
    return first


def first_power_count(fld: NumberFieldSpec, lo: float, hi: float,
                      cls=sieve.EVERYTHING) -> int:
    """The exponents 1 (prime ideals) `ideal_event_arrays` would read,
    counted in one mask over each span's views, weighing nothing."""
    count = 0
    for piece, i, j in _spans(fld, lo, hi, cls):
        count += int(np.count_nonzero(_first(piece[1][i:j], piece[2][i:j],
                                             cls)))
    return count


def first_powers(fld: NumberFieldSpec, lo: float, hi: float,
                 cls=sieve.EVERYTHING):
    """The positions of the exponents 1 `ideal_event_arrays` would read,
    as float64, weighing nothing."""
    reads = [(piece[1][i:j], piece[2][i:j])
             for piece, i, j in _spans(fld, lo, hi, cls)]
    return np.concatenate([pos[_first(pos, expo, cls)] for pos, expo in reads],
                          dtype=np.float64)


def read_edges(lo: float, hi: float) -> list:
    """The edges of (lo, hi] cut at the multiples of s = min(READ_PIECE,
    STORE_BOUND) norms: lo, the multiples between, and hi.  CapacityError
    if hi passes the sieve ceiling, before any edge is made."""
    sieve.check_capacity(hi)
    step = min(READ_PIECE, STORE_BOUND)
    return [lo, *range(math.floor(lo) // step * step + step, math.ceil(hi),
                       step), hi]


def _edges_to(x: float) -> list:
    """`read_edges` of (1, x], or none if x < 2 (no norm lies below 2)."""
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return read_edges(1, x) if x >= 2 else []


def _reads_to(fld: NumberFieldSpec, x: float, cls):
    """The weights of each read of (1, x] that `read_edges` cuts (for Q, in
    class cls); as only they are kept, each read is dropped before the
    next is built."""
    return (ideal_event_arrays(fld, lo, hi, cls)[2]
            for lo, hi in itertools.pairwise(_edges_to(x)))


def psi_K(fld: NumberFieldSpec, x: float, cls=sieve.EVERYTHING) -> float:
    """Sum of log N(P) over prime-ideal powers with norm <= x (for Q, in
    residue class cls), exactly rounded: a weight w >= 1/2 is the whole
    number w 2^53 = a 2^26 + b over 2^53, with exact float limbs
    a = floor(w 2^27) and b = (w 2^27 - a) 2^26, summed as ints."""
    total = 0
    for w in _reads_to(fld, x, cls):
        if not w.min(initial=0.5) >= 0.5:             # NaN fails too
            raise ArithmeticError("a weight below 1/2 has inexact limbs")
        limb = w * 2.0**27
        total += int(np.floor(limb, out=limb).sum(dtype=np.int64)) << 26  # a
        np.subtract(w, np.multiply(limb, 2.0**-27, out=limb), out=limb)
        total += int(np.multiply(limb, 2.0**53, out=limb).sum(dtype=np.int64))
        del w, limb                     # before the next read is built
    return total / 2**53


def pi_K(fld: NumberFieldSpec, x: float, cls=sieve.EVERYTHING) -> int:
    """Number of prime ideals with norm <= x (for Q, in class cls): the
    `first_power_count` of each read of (1, x] that `read_edges` cuts."""
    return sum(first_power_count(fld, lo, hi, cls)
               for lo, hi in itertools.pairwise(_edges_to(x)))


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
