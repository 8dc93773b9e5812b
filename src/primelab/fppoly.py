"""Polynomial arithmetic over the prime field F_p, for fields given by
a polynomial (`NumberFieldSpec.from_poly`); the presets split from
their conductor instead.

`degree_counts` reads the residue-degree pattern of one monic f modulo
many primes at once, one numpy lane per prime, and is the splitting path
of every such field's event build.  The few primes where f is not
squarefree go through `factor_degree_multiset`, which takes the
squarefree decomposition from `sympy.polys.galoistools`.
"""

from __future__ import annotations

import numpy as np


CHUNK = 4096    # lanes per pass; temporaries stay O(CHUNK * n^2)


def factor_degree_multiset(f, p):
    """Multiset of (degree, multiplicity), one entry per irreducible
    factor of monic f over F_p; each squarefree part (sympy's) is one
    lane of `degree_counts`."""
    from sympy.polys.domains import ZZ   # heavyweight; imported on demand
    from sympy.polys.galoistools import gf_from_int_poly, gf_sqf_list
    out = []
    # galoistools lists coefficients leading term first
    for part, mult in gf_sqf_list(gf_from_int_poly(f[::-1], p), p, ZZ)[1]:
        counts = degree_counts(part[::-1], [p], len(part) - 1)[0]
        out += [(d, mult) for d, c in enumerate(counts, 1) for _ in range(c)]
    return sorted(out)


def count_roots(f, primes):
    """Number of distinct roots of monic f mod each prime, for any f."""
    return degree_counts(f, primes)[:, 0]


def degree_counts(f, primes, top=1):
    """counts[k, d - 1] = number of irreducible factors of degree d of
    monic integer f mod primes[k], for d = 1..top (top <= deg f).

    For top > 1, f must be squarefree mod every prime (g_1 counts the
    distinct linear factors of any f).  Then g_d = deg gcd(x^(p^d) -
    x, f) is the sum of e N_e over e | d (von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 14), solved here for the counts N_d."""
    f, primes = [int(c) for c in f], np.asarray(primes)
    return np.concatenate([np.zeros((0, top), dtype=np.int64)] + [
        _chunk_counts(f, primes[s:s + CHUNK], top)
        for s in range(0, len(primes), CHUNK)])


def _chunk_counts(f, p, top):
    # F_p[x]/(f), one lane per prime: an element is an array (n, lanes)
    # whose row i holds the coefficient of x^i, in [0, p).  A sum of n + 1
    # products fits int64 while (n + 1)(p - 1)^2 < 2^63 (every p < 2^30
    # with n <= 7); beyond that the lanes run on Python ints
    n, lanes = len(f) - 1, len(p)
    dtype = np.int64 if (n + 1) * (int(p.max()) - 1) ** 2 < 2**63 else object
    p = p.astype(dtype)
    coeffs = np.array(f, dtype=object if max(map(abs, f)) >> 62 else dtype)
    fp = (coeffs[:, None] % p).astype(dtype)
    # high[k] = x^(n + k) mod f for k < n, from x^n = -(f_0 + ... +
    # f_(n-1) x^(n-1)) on
    high = np.zeros((n, n, lanes), dtype=dtype)
    high[0] = -fp[:n] % p
    for k in range(1, n):
        high[k, 1:] = high[k - 1, :-1]
        high[k] = (high[k] - high[k - 1, -1] * fp[:n]) % p

    def mul(a, b, times_x=False):
        """a b mod f, times x on the lanes where times_x is set."""
        prod = np.zeros((2 * n + 1, lanes), dtype=dtype)  # a b from row 1
        for i in range(n):
            prod[1 + i:1 + i + n] += a[i] * b
        prod = np.where(times_x, prod[:-1], prod[1:]) % p
        return (prod[:n] + (prod[n:, None] * high).sum(axis=0)) % p

    one = np.zeros((n, lanes), dtype=dtype)
    one[0] = 1
    x = mul(one, one, True)
    # x^p by squaring over the bits of p, top bit first
    shifts = np.arange(int(p.max()).bit_length())[::-1, None]
    bits = ((p >> shifts) & 1).astype(bool)
    xp = np.where(bits[0], x, one)
    for bit in bits[1:]:
        xp = mul(xp, xp, bit)
    # over F_p, h(x)^p = sum h_i x^(ip): each x^(p^d) is the Berlekamp
    # matrix Q (row i: x^(ip) mod f) applied to the one before
    q, h = [one, xp], [xp]
    while top > 1 and len(q) < n:
        q.append(mul(q[-1], xp))
    while len(h) < top:
        h.append((h[-1][:, None] * np.stack(q)).sum(axis=0) % p)
    # 2n - 1 inverse-free divsteps on the reversed f and x^(p^d) - x
    # leave delta = 2 g_d (Bernstein and Yang, Fast constant-time gcd
    # computation and modular inversion, 2019, theorem 6.2); step s reads
    # only the coefficients below 2n - 1 - s
    width = 2 * n - 1
    a = np.concatenate([fp[::-1], np.zeros_like(fp)])[None, :width]
    b = np.zeros((top, width, lanes), dtype=dtype)
    b[:, :n] = ((np.stack(h) - x) % p)[:, ::-1]
    delta = np.ones((top, lanes), dtype=np.int64)
    for w in range(width - 1, -1, -1):
        swap = (delta > 0) & (b[:, 0] != 0)
        t = (a[:, :1] * b - b[:, :1] * a) % p
        a, b = np.where(swap[:, None], b, a)[:, :w], t[:, 1:]
        delta = np.where(swap, 1 - delta, 1 + delta)
    g = delta // 2
    for d in range(1, top + 1):
        g[d - 1] -= sum(e * g[e - 1] for e in range(1, d) if d % e == 0)
        g[d - 1] //= d
    return g.T
