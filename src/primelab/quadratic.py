"""Kronecker-symbol splitting oracle for quadratic fields.

Deliberately shares no code with the polynomial-factorization route in
numfield: this module is the independent cross-check.
"""

from __future__ import annotations

from .numfield import SplittingType  # result type only; no algorithm shared


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


def quadratic_splitting_oracle(d: int, p: int):
    """Splitting of the rational prime p in the quadratic field of
    fundamental discriminant d, decided by the Kronecker symbol alone."""
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    symbol = kronecker_symbol(d, p)
    if symbol == 1:
        factors = ((1, 1), (1, 1))      # split: two ideals of norm p
    elif symbol == -1:
        factors = ((2, 1),)             # inert: one ideal of norm p^2
    else:
        factors = ((1, 2),)             # ramified: one ideal of norm p
    return SplittingType(prime=p, factors=factors)
