"""Exact modular arithmetic mod p^k: primes, Jacobi symbols, inverses and
Hensel-lifted square roots.

Residues are plain Python ints in [0, p^k).  The sweep only ever divides by
p-adic units (its factorials stop below p), so no valuation tracking is
needed anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Modulus:
    """An odd prime power p^k."""

    p: int
    k: int
    pk: int

    @classmethod
    def make(cls, p: int, k: int) -> "Modulus":
        if p < 3 or not is_prime(p):
            raise ValueError(f"modulus base must be an odd prime, got {p}")
        if k < 1:
            raise ValueError(f"modulus exponent must be >= 1, got {k}")
        return cls(p, k, p**k)


def inv(a: int, m: Modulus) -> int:
    """Inverse of a mod p^k; raises if p | a."""
    a %= m.pk
    if a % m.p == 0:
        raise ValueError(f"{a} is not invertible modulo {m.p}^{m.k}")
    return pow(a, -1, m.pk)


def _tonelli_shanks(a: int, p: int) -> int:
    """Square root of a mod prime p, assuming (a/p) = 1."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        s = i
    return x


def sqrt_mod_pk(a: int, m: Modulus) -> int | None:
    """A square root of a mod p^k, or None when a is a non-residue mod p.

    Tonelli-Shanks mod p followed by Hensel lifting; of the two roots +-r the
    least nonnegative one is returned.  a must be a unit.
    """
    p, k, pk = m.p, m.k, m.pk
    a %= pk
    if a % p == 0:
        raise ValueError("sqrt_mod_pk requires p not dividing a")
    if jacobi(a, p) == -1:
        return None
    r = _tonelli_shanks(a, p)
    pe = p
    for _ in range(k - 1):
        # lift r from mod pe to mod pe*p:  r' = r + t*pe with t killing the defect
        defect = (a - r * r) // pe
        t = defect * pow(2 * r, -1, p) % p
        r += t * pe
        pe *= p
    r %= pk
    return min(r, pk - r)
