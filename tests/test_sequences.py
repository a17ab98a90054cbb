import math
import random

import pytest
import sympy

from supercong import sequences
from supercong.arith import primes_in
from supercong.congruence import PrimeContext
from supercong.sequences import (
    RECURRENCES,
    SequenceId,
    certify,
    exact_term,
    exact_terms,
    iter_terms,
)

from sequence_formulas import FORMULAS, alternate_formulas

ORACLE_COUNT = 201


@pytest.fixture(scope="module")
def oracle():
    """a_0..a_200 of every family from the literal defining sums, which read
    no recurrence."""
    return {seq: [exact_term(seq, n) for n in range(ORACLE_COUNT)] for seq in SequenceId}


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
    # exact_terms runs the recurrence, exact_term sums the package's summand;
    # the oracle states each sum again with comb
    literal = [FORMULAS[seq][0](n) for n in range(401)]
    assert exact_terms(seq, 401) == literal
    assert [exact_term(seq, n) for n in range(401)] == literal


@pytest.mark.parametrize("seq", list(SequenceId))
def test_row_order_matches_single_terms(seq):
    # the recurrence and the defining sums check each other; the sums of
    # FORMULAS are held to the literal comb sums above
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
    # against the exact row, not the literal sums, which take seconds a term
    # at n near 3000; certify ties the row to the sums at every n
    rng = random.Random(p)
    ctx = PrimeContext(p)
    for seq in SequenceId:
        terms, exact = ctx.terms(seq), exact_terms(seq, p)
        assert len(terms) == p
        for n in [0, 1, p // 2, p - 1] + rng.sample(range(2, p - 1), 3):
            assert terms[n] == scaled_exact(exact[n], p), (seq, p, n)


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


def test_recurrence_check_rejects_wrong_coefficient(oracle, monkeypatch):
    row = RECURRENCES[SequenceId.A]
    monkeypatch.setitem(RECURRENCES, SequenceId.A, row._replace(beta=row.beta + 1))
    assert recurrence_mismatches(SequenceId.A, oracle[SequenceId.A])
    with pytest.raises(ArithmeticError, match="A: "):
        certify(SequenceId.A)
    # the sweep's kernel reads the same row
    expected = [scaled_exact(a, 7) for a in oracle[SequenceId.A][:7]]
    assert PrimeContext(7).terms(SequenceId.A) != expected


# -- Zeilberger certificates ----------------------------------------------------

SUMS = [SequenceId.V, SequenceId.T, SequenceId.D, SequenceId.A]
GENFUN_TAG = {SequenceId.V: "s", SequenceId.T: "w", SequenceId.D: "v", SequenceId.A: "h"}


def test_certify_proves_every_family():
    for seq in SequenceId:
        certify(seq)


def _bump_certificate(monkeypatch, seq):
    # the coefficient of k^2 n in Q raised by one
    real = sequences.CERTIFICATES[seq]
    monkeypatch.setitem(sequences.CERTIFICATES, seq,
                        lambda n, k: (real(n, k)[0] + k * k * n, real(n, k)[1]))


def _bump_summand(monkeypatch, seq):
    # F(7, 4) raised by one, inside the grid and inside every family's support
    real = sequences.SUMMANDS[seq]
    monkeypatch.setitem(sequences.SUMMANDS, seq, lambda n, k: real(n, k) + ((n, k) == (7, 4)))


def _bump_e(monkeypatch, seq):
    monkeypatch.setitem(RECURRENCES, seq, RECURRENCES[seq]._replace(e=RECURRENCES[seq].e + 1))


@pytest.mark.parametrize("corrupt", [_bump_certificate, _bump_summand, _bump_e])
@pytest.mark.parametrize("seq", SUMS)
def test_certify_rejects_a_changed_fact(monkeypatch, capsys, seq, corrupt):
    # each fact is read where it is checked: no cached proof of the good facts
    # covers a changed one, and the checks that rely on it become error rows
    from supercong.cli import EXIT_FAIL, main

    for good in SequenceId:
        certify(good)
    corrupt(monkeypatch, seq)
    with pytest.raises(ArithmeticError, match=f"{seq.value}: .*build is broken"):
        certify(seq)
    assert main(["verify", "qseries", "--terms", "20", "--format", "csv"]) == EXIT_FAIL
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    errors = {row[0] for row in rows if row[2] == "error"}
    assert errors == {f"genfun-{GENFUN_TAG[seq]}"} | ({"v-ode"} if seq is SequenceId.V else set())


def _no_integer_zero(factor, n, k) -> bool:
    """True when a linear polynomial a n + b k + c has no zero at integers
    n, k >= 0: its coefficients share a sign with c != 0, or gcd(a, b) does
    not divide c."""
    poly = sympy.Poly(factor, n, k)
    assert poly.total_degree() <= 1, factor
    a, b, c = (int(poly.coeff_monomial(m)) for m in (n, k, 1))
    return (c != 0 and (a * c >= 0 and b * c >= 0)) or c % math.gcd(a, b) != 0


def _has_no_integer_zero(expr, n, k) -> bool:
    _, factors = sympy.factor_list(expr, n, k)
    return all(_no_integer_zero(f, n, k) for f, _ in factors)


def test_certificates_are_identities_of_rational_functions():
    # the grid argument of certify's docstring, derived independently: each
    # term of the certificate identity is B(n, k) times a rational function
    # whose denominator has no zero at n, k >= 0; cleared of those
    # denominators (with no cancellation against Q) the identity over B is
    # the zero polynomial, of degree at most 12 in n and in k; G(n, 0) = 0
    n, k = sympy.symbols("n k", integer=True, nonnegative=True)
    f, binom = sympy.factorial, sympy.binomial
    stated = {
        SequenceId.V: lambda n, k: (binom(2 * k, k) * binom(2 * n - 2 * k, n - k)) ** 2,
        SequenceId.T: lambda n, k: (binom(n, k) * binom(2 * k, n)) ** 2,
        SequenceId.D: lambda n, k: binom(n, k) ** 2 * binom(2 * k, k) * binom(2 * n - 2 * k, n - k),
        SequenceId.A: lambda n, k: (binom(n, k) * binom(n + k, k)) ** 2,
    }
    for seq, F in stated.items():
        assert all(F(a, b) == sequences.SUMMANDS[seq](a, b)
                   for a in range(12) for b in range(a + 1)), seq
        if seq is SequenceId.T:
            base = (f(2 * k) / (f(k) * f(n + 2 - k) * f(2 * k - n))) ** 2
        else:
            base = F(n + 2, k)
        r2, r1, r0, rho = (sympy.factor(sympy.combsimp(t / base))
                           for t in (F(n + 2, k), F(n + 1, k), F(n, k), F(n + 2, k + 1)))
        certificate = sequences.CERTIFICATES[seq]
        (q0, s0), (q1, s1) = certificate(n, k), certificate(n, k + 1)
        rec = RECURRENCES[seq]
        # (ratio, factor over it, denominator over it), Q kept apart from the ratio
        parts = [(r2, (n + 2) ** 3, 1), (r1, -rec.P(n + 1), 1), (r0, rec.e * (n + 1) ** 3, 1),
                 (rho, -q1, s1), (r2, q0, s0)]
        pieces = []
        for ratio, factor, s in parts:
            num, den = sympy.fraction(ratio)
            assert _has_no_integer_zero(den * s, n, k), (seq, den, s)
            pieces.append((num * factor, den * s))
        common = sympy.lcm_list([den for _, den in pieces])
        polys = [sympy.Poly(sympy.expand(num * sympy.cancel(common / den)), n, k)
                 for num, den in pieces]
        assert max(p.degree(n) for p in polys) <= 12 and max(p.degree(k) for p in polys) <= 12
        assert sum(polys[1:], polys[0]).is_zero, seq
        q, s = certificate(n, 0)
        assert sympy.simplify(F(n + 2, 0) * q / s) == 0, seq
    # the binomial products: (n+2)^3 F(n+2, 0) = P(n+1) F(n+1, 0), over F(n+2, 0)
    products = {
        SequenceId.CB3: lambda n: binom(2 * n, n) ** 3,
        SequenceId.CB4: lambda n: binom(2 * n, n) ** 2 * binom(4 * n, 2 * n),
        SequenceId.CB6: lambda n: binom(2 * n, n) * binom(3 * n, n) * binom(6 * n, 3 * n),
    }
    for seq, F in products.items():
        assert all(F(a) == sequences.SUMMANDS[seq](a, 0) for a in range(12)), seq
        num, den = sympy.fraction(sympy.factor(sympy.combsimp(F(n + 1) / F(n + 2))))
        assert _has_no_integer_zero(den, n, k), (seq, den)
        terms = [sympy.Poly((n + 2) ** 3 * den, n), sympy.Poly(RECURRENCES[seq].P(n + 1) * num, n)]
        assert (terms[0] - terms[1]).is_zero and max(t.degree() for t in terms) <= 12, seq


def test_sequence_command_reports_a_broken_row(monkeypatch, capsys):
    # beta + 1 in A's row: a_1 = 6, and 8 a_2 = 3 * 40 * 6 - 1 is odd
    from supercong.cli import EXIT_FAIL, main

    monkeypatch.setitem(RECURRENCES, SequenceId.A, RECURRENCES[SequenceId.A]._replace(beta=6))
    terms = iter_terms(SequenceId.A, 10)
    assert [next(terms), next(terms)] == [1, 6]
    with pytest.raises(ArithmeticError, match=r"A: .* n = 1$"):
        next(terms)
    assert main(["sequence", "A", "--count", "10"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out.split() == ["1", "6"]
    assert err.startswith("error: A: ") and "n = 1" in err and "Traceback" not in err
