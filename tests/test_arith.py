import math
import random

import pytest

from supercong.arith import (
    Modulus,
    ValUnit,
    batch_invert,
    factorial_table,
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


def test_batch_invert():
    m = Modulus.make(7, 3)
    vals = [1, 2, 5, 6, 10, 12, 341]
    out = batch_invert(vals, m.pk)
    for v, w in zip(vals, out):
        assert v * w % m.pk == 1


def test_factorial_table_values():
    m = Modulus.make(3, 3)
    table = factorial_table(10, m)
    assert table[0] == ValUnit(0, 1)
    assert table[3] == ValUnit(1, 2)  # 3! = 6 = 3 * 2
    m5 = Modulus.make(5, 3)
    t5 = factorial_table(12, m5)
    ten = t5[10]
    assert ten.v == 2
    assert ten.u == math.factorial(10) // 25 % 125 == 27


def test_factorial_table_random_against_bigint():
    rng = random.Random(11)
    for _ in range(25):
        p = rng.choice(primes_in(3, 60))
        k = rng.randint(1, 3)
        m = Modulus.make(p, k)
        n_max = rng.randint(5, 200)
        table = factorial_table(n_max, m)
        n = rng.randint(0, n_max)
        f = math.factorial(n)
        v = 0
        while f % p == 0:
            f //= p
            v += 1
        assert table[n].v == v
        assert table[n].u == f % m.pk


def test_binomial_vu_examples():
    m = Modulus.make(3, 3)
    table = factorial_table(8, m)
    assert table.binomial(0, 0) == ValUnit(0, 1)
    assert table.binomial(4, 2) == ValUnit(1, 2)  # 6 = 3 * 2
    m7 = Modulus.make(7, 3)
    t7 = factorial_table(8, m7)
    assert t7.binomial(8, 4) == ValUnit(1, 10)  # 70 = 7 * 10
    with pytest.raises(ValueError):
        table.binomial(3, 5)


def test_binomial_vu_random_against_comb():
    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice(primes_in(3, 100))
        k = rng.randint(1, 3)
        m = Modulus.make(p, k)
        n = rng.randint(0, 2000)
        r = rng.randint(0, n)
        table = factorial_table(n, m)
        vu = table.binomial(n, r)
        assert vu.residue(m) == math.comb(n, r) % m.pk


def test_to_residue():
    m = Modulus.make(3, 3)
    assert ValUnit(0, 5).residue(m) == 5
    assert ValUnit(3, 2).residue(m) == 0
    assert ValUnit(1, 2).residue(m) == 6


def test_valunit_mul_against_bigint():
    rng = random.Random(5)
    for _ in range(500):
        p = rng.choice(primes_in(3, 50))
        k = rng.randint(1, 4)
        m = Modulus.make(p, k)
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)

        def split(n):
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            return ValUnit(v, n % m.pk)

        prod = split(a).mul(split(b), m)
        assert prod.residue(m) == a * b % m.pk


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
