"""Primes by trial division and the Jacobi symbol.

Trial division is exact for every n, with no size limit.  Residues mod p^k
are plain Python ints in [0, p^k), and an inverse is pow(a, -1, p^k).  The
sweep only ever divides by p-adic units (its factorials stop below p), so no
valuation tracking is needed anywhere downstream.
"""

from __future__ import annotations

import math


def is_prime(n: int) -> bool:
    """Primality by trial division by every odd d <= isqrt(n).  O(sqrt n) is enough:
    each p this program tests is then swept in O(p) or represented in O(sqrt p)."""
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi]; none when lo > hi."""
    return [n for n in range(max(lo, 2), hi + 1) if is_prime(n)]


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
