"""Exact modular arithmetic mod p^k with p-adic valuation tracking.

Everything downstream (sequence recurrences mod p^k, quadratic-form and
binomial right-hand sides, Hensel-lifted square roots) sits on top of this
module.  Residues are plain Python ints in [0, p^k); the only wrapper type is
ValUnit, which keeps a number in the form p^v * u with u a unit, so that
binomial coefficients whose factorials contain powers of p can be divided
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Deterministic Miller-Rabin witness set for all n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test, valid for all 64-bit integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def batch_invert(values: list[int], modulus: int) -> list[int]:
    """Invert many units mod `modulus` with a single modular inversion."""
    n = len(values)
    prefix = [1] * (n + 1)
    for i, v in enumerate(values):
        prefix[i + 1] = prefix[i] * v % modulus
    acc = pow(prefix[n], -1, modulus)
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = acc * prefix[i] % modulus
        acc = acc * values[i] % modulus
    return out


@dataclass(frozen=True)
class ValUnit:
    """A p-adic number p^v * u with explicit valuation v and unit u mod p^k."""

    v: int
    u: int

    def mul(self, other: "ValUnit", m: Modulus) -> "ValUnit":
        return ValUnit(self.v + other.v, self.u * other.u % m.pk)

    def residue(self, m: Modulus) -> int:
        if self.v >= m.k:
            return 0
        return self.u * m.p**self.v % m.pk


class FactorialTable:
    """n! = p^vals[n] * units[n] for n = 0..N, all units reduced mod p^k.

    Built in one incremental pass that strips powers of p from each
    multiplier, so units stay invertible; inv_units holds their inverses
    (batch-inverted).  Instances are immutable after construction and safe
    to share across threads/processes.
    """

    __slots__ = ("m", "vals", "units", "inv_units", "_ppow")

    def __init__(self, n_max: int, m: Modulus):
        if n_max < 0:
            raise ValueError("table size must be >= 0")
        p, pk = m.p, m.pk
        vals = [0] * (n_max + 1)
        units = [1] * (n_max + 1)
        v = 0
        u = 1
        for i in range(1, n_max + 1):
            j = i
            while j % p == 0:
                j //= p
                v += 1
            u = u * j % pk
            vals[i] = v
            units[i] = u
        self.m = m
        self.vals = vals
        self.units = units
        self.inv_units = batch_invert(units, pk)
        self._ppow = [p**e for e in range(m.k)]

    def __len__(self) -> int:
        return len(self.vals)

    def __getitem__(self, n: int) -> ValUnit:
        return ValUnit(self.vals[n], self.units[n])

    def binomial(self, n: int, r: int) -> ValUnit:
        if r < 0 or r > n:
            raise ValueError(f"binomial({n},{r}) out of range")
        v = self.vals[n] - self.vals[r] - self.vals[n - r]
        pk = self.m.pk
        u = self.units[n] * self.inv_units[r] % pk * self.inv_units[n - r] % pk
        return ValUnit(v, u)

    def binomial_residue(self, n: int, r: int) -> int:
        """C(n,r) mod p^k, the fast path behind the InvBinomSq right-hand side."""
        v = self.vals[n] - self.vals[r] - self.vals[n - r]
        if v >= self.m.k:
            return 0
        pk = self.m.pk
        return (
            self._ppow[v]
            * self.units[n]
            % pk
            * self.inv_units[r]
            % pk
            * self.inv_units[n - r]
            % pk
        )


def factorial_table(n_max: int, m: Modulus) -> FactorialTable:
    return FactorialTable(n_max, m)


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
