import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.arith import (
    Modulus,
    inv,
    is_prime,
    jacobi,
    primes_in,
    sqrt_mod_pk,
)


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


def test_modulus_validation():
    m = Modulus.make(3, 3)
    assert m.pk == 27
    with pytest.raises(ValueError):
        Modulus.make(4, 2)
    with pytest.raises(ValueError):
        Modulus.make(2, 2)
    with pytest.raises(ValueError):
        Modulus.make(5, 0)


def test_inv():
    m = Modulus.make(3, 3)
    assert inv(1, m) == 1
    assert inv(2, m) == 14
    assert 2 * 14 % 27 == 1
    with pytest.raises(ValueError):
        inv(3, m)


def test_sqrt_mod_pk():
    m = Modulus.make(7, 2)
    assert sqrt_mod_pk(4, m) == 2
    r = sqrt_mod_pk(2, m)
    assert r == 10  # brute force over 0..48 gives {10, 39}; least returned
    assert r * r % 49 == 2
    assert sqrt_mod_pk(3, Modulus.make(7, 1)) is None
    with pytest.raises(ValueError):
        sqrt_mod_pk(49, m)


def test_sqrt_mod_pk_random():
    rng = random.Random(17)
    count = 0
    while count < 100:
        p = rng.choice(primes_in(3, 200))
        k = rng.randint(1, 4)
        m = Modulus.make(p, k)
        a = rng.randint(1, m.pk - 1)
        if a % p == 0:
            continue
        r = sqrt_mod_pk(a, m)
        if r is None:
            assert jacobi(a, p) == -1
        else:
            assert r * r % m.pk == a % m.pk
            assert r <= m.pk - r
        count += 1


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(primes_in(3, 500)), k=st.integers(1, 4), a=st.integers(1, 500**4))
def test_sqrt_mod_pk_property(p, k, a):
    m = Modulus.make(p, k)
    a %= m.pk
    if a % p == 0:
        a += 1
    r = sqrt_mod_pk(a, m)
    # Euler's criterion, independent of the Jacobi routine sqrt_mod_pk uses
    non_residue = pow(a, (p - 1) // 2, p) == p - 1
    assert (r is None) == non_residue
    if r is not None:
        assert r * r % m.pk == a
        assert 0 <= r <= m.pk - r


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
