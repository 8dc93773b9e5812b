"""Dense univariate polynomial arithmetic over the prime field F_p.

Polynomials are lists of ints in [0, p), constant coefficient first.
Everything here is sized for defining polynomials of number fields
(degree <= ~10), not for bulk polynomial algebra.
"""

from __future__ import annotations

from itertools import zip_longest


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def degree(a) -> int:
    return len(a) - 1  # -1 for the zero polynomial


def reduce_mod(coeffs, p):
    return trim([c % p for c in coeffs])


def monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], p - 2, p) if a[-1] != 1 else 1
    return [(c * inv) % p for c in a]


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return trim(out)


def divmod_poly(a, b, p):
    """Quotient and remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    db, lead = degree(b), b[-1]
    inv = pow(lead, p - 2, p) if lead != 1 else 1
    q = [0] * max(len(a) - db, 0)
    while degree(a) >= db:
        shift = degree(a) - db
        factor = (a[-1] * inv) % p
        q[shift] = factor
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bc) % p
        trim(a)
    return trim(q), a


def mod(a, b, p):
    return divmod_poly(a, b, p)[1]


def mulmod(a, b, m, p):
    return mod(mul(a, b, p), m, p)


def powmod(base, e: int, m, p):
    result = [1]
    base = mod(base, m, p)
    while e:
        if e & 1:
            result = mulmod(result, base, m, p)
        base = mulmod(base, base, m, p)
        e >>= 1
    return result


def gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def derivative(a, p):
    return trim([(i * c) % p for i, c in enumerate(a)][1:])


def _pth_root(a, p):
    # over F_p the Frobenius fixes scalars, so the p-th root of
    # sum c_i x^(p i) is sum c_i x^i
    return trim([a[i] for i in range(0, len(a), p)])


def squarefree_parts(f, p):
    """Squarefree decomposition of monic f: list of (factor, multiplicity)
    with f = prod factor^multiplicity and the factors pairwise coprime."""
    out = []
    c = gcd(f, derivative(f, p), p)
    w = divmod_poly(f, c, p)[0]
    i = 1
    while degree(w) > 0:
        y = gcd(w, c, p)
        fac, _ = divmod_poly(w, y, p)
        if degree(fac) > 0:
            out.append((fac, i))
        w = y
        c = divmod_poly(c, y, p)[0]
        i += 1
    if degree(c) > 0:
        for fac, m in squarefree_parts(_pth_root(c, p), p):
            out.append((fac, m * p))
    return out


def distinct_degree_parts(g, p):
    """For squarefree monic g: list of (product of all irreducible
    factors of degree d, d)."""
    out = []
    x = [0, 1]
    h = mod(x, g, p)
    d = 1
    while degree(g) >= 2 * d:
        h = powmod(h, p, g, p)
        cand = gcd(sub(h, x, p), g, p)
        if degree(cand) > 0:
            out.append((cand, d))
            g = divmod_poly(g, cand, p)[0]
            h = mod(h, g, p)
        d += 1
    if degree(g) > 0:
        out.append((g, degree(g)))
    return out


def sub(a, b, p):
    return trim([(c1 - c2) % p for c1, c2 in zip_longest(a, b, fillvalue=0)])


def factor_degree_multiset(f, p):
    """Multiset of (degree, multiplicity), one entry per irreducible
    factor of monic f over F_p."""
    out = []
    for part, mult in squarefree_parts(monic(reduce_mod(f, p), p), p):
        for prod, d in distinct_degree_parts(part, p):
            out.extend([(d, mult)] * (degree(prod) // d))
    return sorted(out)


def count_roots(f, p):
    """Number of distinct roots of f in F_p: deg gcd(x^p - x, f)."""
    fbar = monic(reduce_mod(f, p), p)
    if degree(fbar) < 1:
        return 0
    xp = powmod([0, 1], p, fbar, p)
    return max(degree(gcd(sub(xp, [0, 1], p), fbar, p)), 0)
