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


def test_is_prime_bigger():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 + 1)
    assert not is_prime(1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
