import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong.arith import Modulus, factorial_table, primes_in
from supercong.sequences import (
    ALL_SEQUENCES,
    RECURRENCES,
    SequenceId,
    alternate_formulas,
    exact_term,
    exact_terms,
    terms_mod,
)

ORACLE_COUNT = 201


@pytest.fixture(scope="module")
def oracle():
    """a_0..a_200 of every family from the defining sums."""
    return {seq: exact_terms(seq, ORACLE_COUNT) for seq in ALL_SEQUENCES}


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
    for seq in ALL_SEQUENCES:
        for n in range(101):
            values = alternate_formulas(seq, n)
            assert len(set(values)) == 1, (seq, n, values)
            assert values[0] == exact_term(seq, n)
            assert values[0] > 0


def test_terms_mod_examples():
    m = Modulus.make(3, 3)
    assert terms_mod(SequenceId.CB3, 3, m) == [1, 8, 0]  # 216 = 8 * 27
    m5 = Modulus.make(5, 3)
    assert terms_mod(SequenceId.A, 3, m5) == [1, 5, 73]
    assert terms_mod(SequenceId.CB3, 1, m5) == [1]


def test_terms_mod_matches_exact():
    rng = random.Random(23)
    count = 300
    exact = {seq: exact_terms(seq, count) for seq in ALL_SEQUENCES}
    for _ in range(10):
        p = rng.choice(primes_in(3, 60))
        k = rng.randint(1, 3)
        m = Modulus.make(p, k)
        for seq in ALL_SEQUENCES:
            got = terms_mod(seq, count, m)
            assert got == [a % m.pk for a in exact[seq]], (seq, p, k)


def test_cb3_upper_range_valuations():
    # C(2k,k)^3 has p-valuation >= 3 for (p+1)/2 <= k <= p-1
    for p in primes_in(3, 60):
        m = Modulus.make(p, 3)
        table = factorial_table(2 * p, m)
        for k in range((p + 1) // 2, p):
            assert 3 * table.binomial(2 * k, k).v >= 3


def test_terms_mod_validation():
    m = Modulus.make(5, 3)
    with pytest.raises(ValueError):
        terms_mod(SequenceId.CB3, 0, m)


def test_recurrences_reproduce_exact_terms(oracle):
    assert set(RECURRENCES) == set(ALL_SEQUENCES)
    for seq in ALL_SEQUENCES:
        assert oracle[seq][0] == 1
        assert recurrence_mismatches(seq, oracle[seq]) == [], seq


def test_recurrence_check_rejects_wrong_coefficient(oracle, monkeypatch):
    row = RECURRENCES[SequenceId.A]
    monkeypatch.setitem(RECURRENCES, SequenceId.A, row._replace(beta=row.beta + 1))
    assert recurrence_mismatches(SequenceId.A, oracle[SequenceId.A])
    m = Modulus.make(7, 3)
    assert terms_mod(SequenceId.A, 7, m) != [a % m.pk for a in oracle[SequenceId.A][:7]]


@settings(max_examples=150, deadline=None)
@given(
    seq=st.sampled_from(ALL_SEQUENCES),
    p=st.sampled_from(primes_in(3, 97)),
    k=st.integers(1, 4),
    count=st.integers(1, ORACLE_COUNT - 1),
)
def test_terms_mod_matches_exact_property(oracle, seq, p, k, count):
    # count > p and count > p^2 (small p) make the recurrence divide by p
    m = Modulus.make(p, k)
    assert terms_mod(seq, count, m) == [a % m.pk for a in oracle[seq][:count]]
