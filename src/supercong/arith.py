"""Primes and the Jacobi symbol.

Residues mod p^k are plain Python ints in [0, p^k), and an inverse is
pow(a, -1, p^k).  The sweep only ever divides by p-adic units (its factorials
stop below p), so no valuation tracking is needed anywhere downstream.
"""

from __future__ import annotations

# Deterministic Miller-Rabin witness set for all n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test, valid for all 64-bit integers."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi]."""
    if lo > hi:
        return []
    lo = max(lo, 2)
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; (a/1) = 1 by convention."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
