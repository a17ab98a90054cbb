import math
import random

import pytest

from supercong.arith import primes_in
from supercong.congruence import PrimeContext
from supercong.sequences import (
    RECURRENCES,
    SequenceId,
    exact_term,
    exact_terms,
    iter_terms,
    recurrence_break,
)

from sequence_formulas import FORMULAS, alternate_formulas

ORACLE_COUNT = 201


@pytest.fixture(scope="module")
def oracle():
    """a_0..a_200 of every family from the defining sums."""
    return {seq: exact_terms(seq, ORACLE_COUNT) for seq in SequenceId}


def scaled_exact(a: int, p: int) -> int:
    """a ((p-1)!)^3 mod p^3, the scale of PrimeContext(p).terms."""
    return a * math.factorial(p - 1) ** 3 % p**3


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
    # exact_terms steps whole rows by the summands' ratios in n, exact_term
    # steps one sum by the ratios in k; the oracle calls comb
    literal = [FORMULAS[seq][0](n) for n in range(401)]
    assert exact_terms(seq, 401) == literal
    assert [exact_term(seq, n) for n in range(401)] == literal


@pytest.mark.parametrize("seq", list(SequenceId))
def test_row_order_matches_single_terms(seq):
    # the two evaluation orders of the defining sums check each other; the
    # sums of FORMULAS are held to the literal comb sums above
    count = 2 if seq in FORMULAS else 301
    singles = [exact_term(seq, n) for n in range(count)]
    assert exact_terms(seq, 0) == []
    for c in sorted({1, 2, count}):
        assert exact_terms(seq, c) == singles[:c], c


@pytest.mark.parametrize("seq", [SequenceId.V, SequenceId.T, SequenceId.D, SequenceId.A])
def test_iter_terms_yields_each_term_as_it_is_summed(seq):
    # supercong sequence prints from iter_terms; a prefix far past what is
    # read costs nothing up front
    terms = iter_terms(seq, 10**9)
    assert [next(terms) for _ in range(5)] == exact_terms(seq, 5)


def test_terms_mod_examples():
    assert PrimeContext(3).terms(SequenceId.CB3) == [8, 10, 0]  # 216 * 2!^3 = 64 * 27
    # a_n = 1, 5, 73, 1445, 33001 times 4!^3 = 74 mod 125
    assert PrimeContext(5).terms(SequenceId.A) == [74, 120, 27, 55, 74]


def test_terms_mod_matches_exact(oracle):
    # every family at every prime p <= 199: the whole list, n < p
    for p in primes_in(3, 199):
        ctx = PrimeContext(p)
        for seq in SequenceId:
            assert ctx.terms(seq) == [scaled_exact(a, p) for a in oracle[seq][:p]], (seq, p)


@pytest.mark.parametrize("p", [1109, 3001])
def test_terms_mod_matches_exact_at_large_primes(p):
    rng = random.Random(p)
    ctx = PrimeContext(p)
    for seq in SequenceId:
        terms = ctx.terms(seq)
        assert len(terms) == p
        for n in [0, 1, p // 2, p - 1] + rng.sample(range(2, p - 1), 3):
            assert terms[n] == scaled_exact(exact_term(seq, n), p), (seq, p, n)


def test_cb3_upper_range_valuations():
    # C(2k,k)^3 has p-valuation >= 3 for (p+1)/2 <= k <= p-1
    for p in primes_in(3, 60):
        for k in range((p + 1) // 2, p):
            b, v = math.comb(2 * k, k), 0
            while b % p == 0:
                b //= p
                v += 1
            assert 3 * v >= 3


def test_recurrences_reproduce_exact_terms(oracle):
    assert set(RECURRENCES) == set(SequenceId)
    for seq in SequenceId:
        assert oracle[seq][0] == 1
        assert recurrence_mismatches(seq, oracle[seq]) == [], seq
        assert recurrence_break(seq, oracle[seq]) is None, seq


def test_recurrence_check_rejects_wrong_coefficient(oracle, monkeypatch):
    row = RECURRENCES[SequenceId.A]
    monkeypatch.setitem(RECURRENCES, SequenceId.A, row._replace(beta=row.beta + 1))
    bad = recurrence_mismatches(SequenceId.A, oracle[SequenceId.A])
    assert bad and recurrence_break(SequenceId.A, oracle[SequenceId.A]) == bad[0]
    # the sweep's kernel reads the same row
    expected = [scaled_exact(a, 7) for a in oracle[SequenceId.A][:7]]
    assert PrimeContext(7).terms(SequenceId.A) != expected

