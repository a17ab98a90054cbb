import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.arith import primes_in
from supercong.sequences import (
    RECURRENCES,
    SequenceId,
    exact_term,
    exact_terms,
    scaled_terms_mod,
)

from sequence_formulas import FORMULAS, alternate_formulas

ORACLE_COUNT = 201


@pytest.fixture(scope="module")
def oracle():
    """a_0..a_200 of every family from the defining sums."""
    return {seq: exact_terms(seq, ORACLE_COUNT) for seq in SequenceId}


@pytest.fixture(scope="module")
def scaled_oracle(oracle):
    """a_n (n!)^3 for n <= 200, exact."""
    return {seq: [a * math.factorial(n) ** 3 for n, a in enumerate(oracle[seq])]
            for seq in SequenceId}


def recurrence_mismatches(seq, terms):
    """Indices n where terms break (n+1)^3 a_{n+1} = P(n) a_n - Q(n) a_{n-1}."""
    c, alpha, beta, e = RECURRENCES[seq]
    bad = []
    for n in range(len(terms) - 1):
        prev = terms[n - 1] if n else 0
        rhs = c * (2 * n + 1) * (alpha * n * n + alpha * n + beta) * terms[n] - e * n**3 * prev
        if (n + 1) ** 3 * terms[n + 1] != rhs:
            bad.append(n)
    return bad


def test_exact_small_values():
    assert exact_term(SequenceId.A, 0) == 1
    assert exact_term(SequenceId.A, 2) == 73
    assert exact_terms(SequenceId.A, 5) == [1, 5, 73, 1445, 33001]
    assert exact_term(SequenceId.V, 2) == 88  # 36 + 16 + 36
    assert exact_term(SequenceId.T, 2) == 40  # 0 + 4 + 36
    assert exact_term(SequenceId.D, 2) == 28  # 6 + 16 + 6
    assert exact_term(SequenceId.CB3, 1) == 8
    assert exact_term(SequenceId.CB4, 2) == 2520
    assert exact_term(SequenceId.CB6, 1) == 2 * 3 * 20


def test_alternate_formulas_examples():
    assert alternate_formulas(SequenceId.V, 1) == [8, 8, 8]
    assert alternate_formulas(SequenceId.T, 1) == [4, 4]
    assert alternate_formulas(SequenceId.D, 0) == [1]


def test_all_formulas_agree_to_100():
    for seq in SequenceId:
        for n in range(101):
            values = alternate_formulas(seq, n)
            assert len(set(values)) == 1, (seq, n, values)
            assert values[0] == exact_term(seq, n)
            assert values[0] > 0


@pytest.mark.parametrize("seq", list(FORMULAS))
def test_stepped_sums_match_literal_comb_sums(seq):
    # exact_terms steps each summand by its term ratio; the oracle calls comb
    literal = FORMULAS[seq][0]
    assert exact_terms(seq, 401) == [literal(n) for n in range(401)]


def test_terms_mod_examples():
    assert scaled_terms_mod(SequenceId.CB3, 3, 27) == [1, 8, 0]  # 216 * 2!^3 = 64 * 27
    assert scaled_terms_mod(SequenceId.A, 3, 125) == [1, 5, 84]  # 73 * 8 = 584
    assert scaled_terms_mod(SequenceId.CB3, 1, 125) == [1]
    assert scaled_terms_mod(SequenceId.A, 3, 1) == [0, 0, 0]


def test_terms_mod_matches_exact(scaled_oracle):
    rng = random.Random(23)
    count = ORACLE_COUNT
    for _ in range(10):
        p = rng.choice(primes_in(3, 60))
        modulus = p ** rng.randint(1, 3)
        for seq in SequenceId:
            got = scaled_terms_mod(seq, count, modulus)
            assert got == [x % modulus for x in scaled_oracle[seq]], (seq, modulus)


def test_cb3_upper_range_valuations():
    # C(2k,k)^3 has p-valuation >= 3 for (p+1)/2 <= k <= p-1
    for p in primes_in(3, 60):
        for k in range((p + 1) // 2, p):
            b, v = math.comb(2 * k, k), 0
            while b % p == 0:
                b //= p
                v += 1
            assert 3 * v >= 3


def test_terms_mod_validation():
    with pytest.raises(ValueError):
        scaled_terms_mod(SequenceId.CB3, 0, 125)


def test_recurrences_reproduce_exact_terms(oracle):
    assert set(RECURRENCES) == set(SequenceId)
    for seq in SequenceId:
        assert oracle[seq][0] == 1
        assert recurrence_mismatches(seq, oracle[seq]) == [], seq


def test_recurrence_check_rejects_wrong_coefficient(oracle, scaled_oracle, monkeypatch):
    row = RECURRENCES[SequenceId.A]
    monkeypatch.setitem(RECURRENCES, SequenceId.A, row._replace(beta=row.beta + 1))
    assert recurrence_mismatches(SequenceId.A, oracle[SequenceId.A])
    expected = [x % 343 for x in scaled_oracle[SequenceId.A][:7]]
    assert scaled_terms_mod(SequenceId.A, 7, 343) != expected


@settings(max_examples=150, deadline=None)
@given(
    seq=st.sampled_from(tuple(SequenceId)),
    modulus=st.one_of(
        st.builds(pow, st.sampled_from(primes_in(3, 97)), st.integers(1, 4)),
        st.integers(1, 10**12),
    ),
    count=st.integers(1, ORACLE_COUNT - 1),
)
def test_terms_mod_matches_exact_property(scaled_oracle, seq, modulus, count):
    # count > p (small p) and composite moduli: the kernel never divides
    got = scaled_terms_mod(seq, count, modulus)
    assert got == [x % modulus for x in scaled_oracle[seq][:count]]
