"""Brute-force oracles that share no code with the package.

Primality is trial division, prime powers are found by repeated
division, and the splitting of a prime is decided by the Kronecker
symbol in a quadratic field or by the multiplicative order of p in a
cyclotomic one.  A splitting is a tuple of (residue degree f,
ramification index e) pairs, one per prime ideal.  Nothing here imports
primelab; `test_oracles_import_nothing_from_primelab` checks that.
"""

import math


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


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), full generality including n <= 0 and
    even n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # strip factors of 2 from n; (a|2) = 0, 1, -1 for a even, a = +-1 (8),
    # a = +-3 (8)
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    # now n is odd and positive: Jacobi symbol with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _squarefree(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def is_fundamental_discriminant(d: int) -> bool:
    if d == 1 or d == 0:
        return False
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def quadratic_splitting(d: int, p: int):
    """Prime ideals above the rational prime p in the quadratic field of
    fundamental discriminant d, as (f, e) pairs, decided by the Kronecker
    symbol alone."""
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    symbol = kronecker_symbol(d, p)
    if symbol == 1:
        return ((1, 1), (1, 1))         # split: two ideals of norm p
    if symbol == -1:
        return ((2, 1),)                # inert: one ideal of norm p^2
    return ((1, 2),)                    # ramified: one ideal of norm p
