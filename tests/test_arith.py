import math
import random

import pytest

from supercong.arith import is_prime, jacobi, primes_in


def test_jacobi_basics():
    assert jacobi(1, 7) == 1
    # exhaustive squares mod 7: {1, 2, 4}
    squares = {x * x % 7 for x in range(1, 7)}
    assert jacobi(-1, 7) == (1 if 6 in squares else -1) == -1
    assert jacobi(2, 7) == (1 if 2 in squares else -1) == 1
    assert jacobi(10, 1) == 1  # convention
    with pytest.raises(ValueError):
        jacobi(3, 8)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_jacobi_matches_euler_criterion():
    for p in primes_in(3, 60):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert jacobi(a, p) == expected


def test_jacobi_multiplicative():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(3, 10_000, 2)
        a = rng.randrange(-500, 500)
        b = rng.randrange(-500, 500)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_primes_in():
    assert primes_in(3, 10) == [3, 5, 7]
    assert primes_in(2, 2) == [2]
    assert primes_in(90, 100) == [n for n in range(90, 101)
                                  if n > 1 and all(n % d for d in range(2, n))]
    assert primes_in(90, 100) == [97]


def _sieve(hi):
    """Eratosthenes: flags[n] is True exactly for the primes n < hi."""
    flags = [False, False] + [True] * (hi - 2)
    for d in range(2, math.isqrt(hi - 1) + 1):
        if flags[d]:
            flags[d * d::d] = [False] * len(range(d * d, hi, d))
    return flags


def test_is_prime_matches_a_sieve():
    hi = 200_000
    flags = _sieve(hi)
    assert [n for n in range(-5, hi) if is_prime(n)] == [n for n in range(hi) if flags[n]]
    for lo, top in [(2, 2), (-5, 30), (3, 3), (4, 4), (100_000, 100_300)]:
        assert primes_in(lo, top) == [n for n in range(max(lo, 0), top + 1) if flags[n]]
    assert primes_in(10, 9) == []


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_bigger():
    for p in (2**31 - 1, 999983, 1000003):
        assert is_prime(p)
    assert not is_prime(2**31 + 1)
    assert not is_prime(1)
    # Carmichael numbers: a^(n-1) = 1 mod n for every base a prime to n
    for n in (561, 41041, 825265, 321197185):
        assert all(pow(a, n - 1, n) == 1 for a in range(2, 50) if math.gcd(a, n) == 1)
        assert not is_prime(n)
    # strong pseudoprimes to the first 4 and the first 11 prime bases
    for n, bases in ((3215031751, (2, 3, 5, 7)),
                     (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))):
        assert all(_strong_probable_prime(n, a) for a in bases)
        assert not is_prime(n)
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    # a prime square has no divisor below its root
    assert not is_prime(1000003**2)
