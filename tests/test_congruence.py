"""Catalog encoding checks and the sweep harness, cross-validated against an
independent big-integer oracle."""

import dataclasses
import functools
import math
import multiprocessing
from fractions import Fraction

import pytest

from supercong import congruence
from supercong.cli import EXIT_FAIL, exit_code_for, main
from supercong.arith import jacobi, primes_in
from supercong.congruence import (
    QF,
    Branch,
    CongruenceSpec,
    InvBinomSq,
    PrimeContext,
    PrimePredicate,
    catalog,
    catalog_forms,
    catalog_ids,
    coefficients,
    lhs_sum,
    lookup,
    pair_weights,
    rhs_value,
    sweep,
    verify,
)
from supercong.quadforms import FormSpec, QuadRep, represent, unit_leading
from supercong.report import Report
from supercong.sequences import RECURRENCES, Recurrence, SequenceId, exact_term


@functools.cache
def literal_sums(seq):
    """a_0 .. a_79 by the literal defining sums, which read no recurrence."""
    return [exact_term(seq, n) for n in range(80)]


def oracle_lhs_fraction(spec, p):
    """Independent route: exact big-integer terms, one modular inversion."""
    pk = p**spec.mod_exp
    limit = (p - 1) // 2 if spec.limit == "half" else p - 1
    terms = literal_sums(spec.sequence)[:limit + 1]
    assert len(terms) == limit + 1
    m = spec.m
    num = sum(a * m ** (limit - k) for k, a in enumerate(terms))
    return num % pk * pow(pow(m, limit, pk), -1, pk) % pk


def test_catalog_shape():
    rows = catalog()
    assert len(rows) >= 40
    assert {r.status for r in rows} == {"proven", "conjectural", "cited"}
    proven = [r for r in rows if r.status == "proven"]
    assert len(proven) >= 40
    # every theorem appears
    for i in range(1, 30):
        assert any(r.id.startswith(f"T1.{i}") for r in rows), f"T1.{i} missing"


def test_lookup_examples():
    t15 = lookup("T1.5")
    assert t15.sequence is SequenceId.CB4
    assert t15.m == 256
    assert t15.limit == "full"
    assert t15.predicate.holds(3) and t15.predicate.holds(11)
    assert not t15.predicate.holds(5) and not t15.predicate.holds(7)
    branch = t15.match_branch(3)
    assert branch.rep.a == 1 and branch.rep.d == 2 and branch.rep.c == 1
    assert branch.rhs == QF(4, -2, -1, 4)
    assert branch.character == 1

    t122 = lookup("T1.22")
    assert t122.sequence is SequenceId.CB6
    assert t122.m == -(640320**3)
    assert t122.tau is None  # CB6's m is j(tau), which has no CM target yet
    assert t122.predicate.jacobi_conditions == ((-163, 1),)
    b = t122.branches[0]
    assert (b.rep.a, b.rep.d, b.rep.c) == (1, 163, 4)
    assert b.rhs == QF(1, -2, -1, 1)
    assert b.character == -10005

    t129 = lookup("T1.29")
    assert t129.sequence is SequenceId.A
    assert t129.m == -1
    assert (t129.branches[0].rep.a, t129.branches[0].rep.d, t129.branches[0].rep.c) == (1, 3, 1)
    assert t129.branches[0].rhs == QF(4, -2, -1, 4)

    with pytest.raises(KeyError, match="unknown congruence id 'T9.99'"):
        lookup("T9.99")


def test_parity_signs_are_jacobi_symbols():
    """The supplementary laws behind char=-1 and char=2 in the catalog:
    (-1)^((p-1)/2) = (-1/p), and (-1)^((p-1)/4) = (2/p) when p = 1 mod 4."""
    for p in primes_in(3, 3000):
        assert jacobi(-1, p) == (-1) ** ((p - 1) // 2), p
        if p % 4 == 1:
            assert jacobi(2, p) == (-1) ** ((p - 1) // 4), p


def test_branch_exclusivity_below_2000():
    for spec in catalog():
        for p in primes_in(3, 2000):
            if spec.m % p == 0 or not spec.qualifies(p):
                continue
            matches = [b for b in spec.branches if b.condition.holds(p)]
            assert len(matches) == 1, (spec.id, p)


def test_representability_consistency_below_2000():
    """For qualifying primes the matched branch's form represents, and a
    two-branch row's other form does not (representations are exclusive)."""
    for spec in catalog():
        multi = len(spec.branches) > 1
        for p in primes_in(3, 2000):
            if spec.m % p == 0 or not spec.qualifies(p):
                continue
            branch = spec.match_branch(p)
            if branch.rep is None:
                continue
            assert represent(p, branch.rep) is not None, (spec.id, p)
            if multi:
                for other in spec.branches:
                    if other is not branch and other.rep is not None:
                        if other.rep != branch.rep:
                            assert represent(p, other.rep) is None, (spec.id, p)


def test_verify_examples():
    assert verify(lookup("T1.5"), 3).outcome == "pass"
    # tiny-prime edge: p=3 half sum has limit 1, so the a_1 term participates
    row = verify(lookup("T1.4"), 3)
    assert row.outcome == "pass" and row.lhs == 11  # 1 + 8*inv(-64) mod 27
    row = verify(lookup("T1.5"), 5)
    assert row.outcome == "skip" and row.detail == "predicate"
    row = verify(lookup("T1.8"), 3)
    assert row.outcome == "skip" and row.detail == "divides-m"


def test_lhs_sum_against_oracle():
    """Every row at every prime 5 <= p < 80 with p not dividing m, on the walk
    and on the shared terms.  Both kernels step two indices a pass, so the
    rows cover both parities of the count L+1: half rows at p = 1 and 3 mod 4,
    full rows always odd; p = 5 and 7 run the pair loop once or twice."""
    parities = set()
    for p in primes_in(5, 79):
        ctx = PrimeContext(p)
        for spec in catalog():
            if spec.m % p == 0:
                continue
            want = oracle_lhs_fraction(spec, p)
            assert lhs_sum(spec, p) == lhs_sum(spec, p, ctx) == want, (spec.id, p)
            parities.add(((p - 1) // 2 if spec.limit == "half" else p - 1) % 2)
    assert parities == {0, 1}


def recurrence_lhs(spec, p):
    """sum a_k m^-k mod p^3 from exact terms of the recurrence, each division checked."""
    c, alpha, beta, e = RECURRENCES[spec.sequence]
    limit = (p - 1) // 2 if spec.limit == "half" else p - 1
    terms, prev = [1], 0
    for n in range(limit):
        q, r = divmod(c * (2 * n + 1) * (alpha * n * (n + 1) + beta) * terms[n]
                      - e * n**3 * prev, (n + 1) ** 3)
        assert r == 0
        prev = terms[n]
        terms.append(q)
    pk = p**3
    w = pow(spec.m, -1, pk)
    return sum(a % pk * pow(w, k, pk) for k, a in enumerate(terms)) % pk


def test_lhs_sum_against_recurrence_oracle_near_1100():
    """The first proven row of each family, at its first qualifying prime in a
    window, and a second half-limit CB3 row at the first row's prime; rows at
    one prime share one context, and each row also walks alone.  Near 3000,
    p^3 > 2^34 and n^3 > 2^31."""
    for window in ((1100, 1130), (3000, 3100)):
        contexts = {}
        checked = set()
        for spec in catalog():
            if spec.status != "proven" or spec.sequence in checked:
                continue
            p = next(p for p in primes_in(*window) if spec.qualifies(p) and spec.m % p)
            ctx = contexts.setdefault(p, PrimeContext(p))
            want = recurrence_lhs(spec, p)
            assert lhs_sum(spec, p, ctx) == lhs_sum(spec, p) == want, (spec.id, p)
            checked.add(spec.sequence)
        assert checked == set(SequenceId)
        first = lookup("T1.1")
        p = next(p for p in primes_in(*window) if first.qualifies(p))
        half = lookup("T1.1-b")  # m = 4096, the same primes
        assert half.limit == "half" and half.qualifies(p)
        want = recurrence_lhs(half, p)
        assert lhs_sum(half, p, contexts[p]) == lhs_sum(half, p) == want, (half.id, p)


def test_walk_is_the_shared_path_below_600():
    """lhs_sum without a context walks; with PrimeContext(p) it reads the shared
    terms.  Both agree for every row at every prime 5 <= p < 600 with p not
    dividing m, qualifying or not."""
    for p in primes_in(5, 599):
        ctx = PrimeContext(p)
        for spec in catalog():
            if spec.m % p:
                assert lhs_sum(spec, p) == lhs_sum(spec, p, ctx), (spec.id, p)


def test_walk_is_the_shared_path_at_99991():
    # the first row of each family; the left side is defined at any p not dividing m
    p = 99991
    ctx = PrimeContext(p)
    firsts = {}
    for spec in catalog():
        firsts.setdefault(spec.sequence, spec)
    assert set(firsts) == set(SequenceId)
    for spec in firsts.values():
        assert spec.m % p
        assert lhs_sum(spec, p) == lhs_sum(spec, p, ctx), spec.id


@pytest.mark.parametrize("spec_id, p", [("T1.1", 1103), ("T1.29", 1117)])
def test_walk_catches_one_changed_coefficient(monkeypatch, spec_id, p):
    # a half e = 0 row and a full e != 0 row; P(n) one too large at one n < L
    spec = lookup(spec_id)
    want = recurrence_lhs(spec, p)
    assert lhs_sum(spec, p) == want
    real = congruence.coefficients

    def off_by_one(rec, count):
        P, Q = real(rec, count)
        P = list(P)
        P[count // 2] += 1
        return P, Q

    monkeypatch.setattr(congruence, "coefficients", off_by_one)
    assert lhs_sum(spec, p) != want


@pytest.mark.parametrize("table", [0, 1], ids=["cubes", "products"])
@pytest.mark.parametrize("spec_id, p", [("T1.1", 1103), ("T1.29", 1117)])
def test_walk_catches_one_changed_weight(monkeypatch, spec_id, p, table):
    # an even count (half, e = 0) and an odd count (full, e != 0); (n+1)^3 or
    # (n(n+1))^3 one too large at one n the walk reads, n = L-1 mod 2
    spec = lookup(spec_id)
    want = recurrence_lhs(spec, p)
    assert lhs_sum(spec, p) == want
    real = congruence.pair_weights

    def off_by_one(count):
        weights = [list(w) for w in real(count)]
        weights[table][count - 1 - 2 * (count // 4)] += 1
        return weights

    monkeypatch.setattr(congruence, "pair_weights", off_by_one)
    assert lhs_sum(spec, p) != want


@pytest.mark.parametrize("spec_id, p, shared", [("T1.1", 1103, False), ("T1.5", 1097, True)])
def test_first_order_rows_step_their_q_table(monkeypatch, spec_id, p, shared):
    # an e = 0 row runs the same three-term step as every row, reading its Q
    # table of zeros: one nonzero entry changes the left side, on the walk and
    # on the shared terms of PrimeContext(p)
    spec = lookup(spec_id)
    assert RECURRENCES[spec.sequence].e == 0 and spec.qualifies(p)
    context = PrimeContext if shared else lambda p: None
    want = recurrence_lhs(spec, p)
    assert lhs_sum(spec, p, context(p)) == want
    real = congruence.coefficients

    def one_nonzero(rec, count):
        P, Q = real(rec, count)
        Q = list(Q)
        Q[count // 2] += 1
        return P, Q

    monkeypatch.setattr(congruence, "coefficients", one_nonzero)
    assert lhs_sum(spec, p, context(p)) != want


def test_lhs_sum_raises_when_p_divides_m():
    spec = lookup("T1.9")  # m = 28^4
    for ctx in (None, PrimeContext(7)):
        with pytest.raises(ValueError):
            lhs_sum(spec, 7, ctx)


def test_sweep_walks_exactly_the_lone_families(monkeypatch):
    """A family with one row in the sweep never builds terms; a family with
    two or more builds one term list per prime where one of its rows is
    checked."""
    built = {}
    real = PrimeContext.terms

    def spy(self, seq):
        terms = real(self, seq)
        built.setdefault((self.p, seq), set()).add(id(terms))
        return terms

    monkeypatch.setattr(PrimeContext, "terms", spy)
    lone = sweep(["T1.29"], 5, 300)
    assert built == {} and lone.summary()["pass"] == 28  # p = 1 mod 3
    for ids in (["T1.1", "T1.1-b", "T1.29"], catalog_ids(("proven", "conjectural", "cited"))):
        built.clear()
        report = sweep(ids, 5, 300)
        shared = {seq for seq in SequenceId
                  if sum(lookup(sid).sequence is seq for sid in ids) > 1}
        checked = {(row.p, lookup(row.spec_id).sequence) for row in report.rows
                   if row.outcome == "pass" and lookup(row.spec_id).sequence in shared}
        assert report.summary()["fail"] == 0
        assert set(built) == checked
        assert all(len(lists) == 1 for lists in built.values())
    assert len(ids) == 56 and shared == set(SequenceId)


def test_prime_context_table_is_factorials():
    for p in (3, 5, 97, 1109):
        table = PrimeContext(p).table
        assert table == [math.factorial(n) % p**3 for n in range(p)]


def test_cofactorials_are_factorial_ratios():
    for p in (3, 5, 97, 1109):
        assert PrimeContext(p).cofactorials == [
            (math.factorial(p - 1) // math.factorial(n)) ** 3 % p**3 for n in range(p)]
    # n^3 > 2^31 here; every 50th n and the last, as each one costs a big quotient
    p = 3001
    cof = PrimeContext(p).cofactorials
    assert len(cof) == p
    for n in [*range(0, p, 50), p - 1]:
        assert cof[n] == (math.factorial(p - 1) // math.factorial(n)) ** 3 % p**3, n


def test_coefficient_tables_are_the_recurrence_polynomials():
    for rec in RECURRENCES.values():
        c, alpha, beta, e = rec
        P, Q = coefficients(rec, 3000)
        assert P[:3000] == [c * (2 * n + 1) * (alpha * n * n + alpha * n + beta)
                            for n in range(3000)]
        assert Q[:3000] == [e * n**6 for n in range(3000)]  # zeros for CB3, CB4, CB6
    # a row no table holds yet: a short table grows by extension, never rebuilt
    rec = Recurrence(3, 7, 2, 5)
    short = [list(table) for table in coefficients(rec, 10)]
    P, Q = coefficients(rec, 3000)
    assert (len(short[0]), len(P), len(Q)) == (10, 3000, 3000)
    assert [P[:10], Q[:10]] == short
    assert coefficients(rec, 5) == (P, Q)  # a shorter request keeps the long table


def test_pair_weights_are_cubes_and_products():
    cubes, products = pair_weights(3000)
    assert cubes[:3000] == [(n + 1) ** 3 for n in range(3000)]
    assert products[:3000] == [(n * (n + 1)) ** 3 for n in range(3000)]
    # one table per process: a longer request extends it, never rebuilt
    short = [cubes[:10], products[:10]]
    count = len(cubes) + 7
    longer = pair_weights(count)
    assert longer[0] is cubes and longer[1] is products
    assert (len(cubes), len(products)) == (count, count)
    assert [cubes[:10], products[:10]] == short
    assert pair_weights(5)[0] is cubes  # a shorter request keeps the long table


def test_shared_representation_is_represent():
    forms = catalog_forms()
    for p in primes_in(3, 1000):
        ctx = PrimeContext(p)
        for form in forms:
            assert ctx.representation(form) == represent(p, form), (form, p)
            assert ctx.representation(form) is ctx.representation(form)


def test_invbinomsq_rhs_against_comb():
    """Every inverse-binomial branch case at qualifying 5 <= p <= 2000 against
    (u/p) rho p^2 C(n, r)^-2 mod p^e, with C(n, r) = n!/(r! (n-r)!) from
    math.factorial and pow alone, not from the comb that rhs_value calls."""
    f = math.factorial
    checked = 0
    for p in primes_in(5, 2000):
        ctx = PrimeContext(p)
        for spec in catalog():
            branch = spec.match_branch(p) if spec.qualifies(p) else None
            if branch is None or not isinstance(branch.rhs, InvBinomSq):
                continue
            rho, pe = branch.rhs.rho, p**spec.mod_exp
            n, r = branch.rhs.top.eval(p), branch.rhs.bottom.eval(p)
            expected = (jacobi(branch.character, p) * rho.numerator * p * p
                        * (f(r) * f(n - r)) ** 2 * pow(rho.denominator * f(n) ** 2, -1, pe)) % pe
            assert rhs_value(spec, branch, p, None, ctx) == expected, (spec.id, p)
            checked += 1
    assert checked == 1085


def test_catalog_rows_are_well_formed_and_checked():
    """Every QF branch is eps (X^2 - 2p - p^2/X^2) with X^2 = 4a x^2/c and
    eps = +-1; every m is nonzero; every proven row passes at >= 10 primes
    below 1000, so none is silently never checked."""
    for spec in catalog():
        assert spec.m != 0, spec.id
        for branch in spec.branches:
            if not isinstance(branch.rhs, QF):
                continue
            r1, r2, r3, r4 = dataclasses.astuple(branch.rhs)
            k, eps = Fraction(4 * branch.rep.a, branch.rep.c), Fraction(-r2, 2)
            assert eps in (1, -1), spec.id
            assert (r1, Fraction(r3, r4)) == (eps * k, -eps / k), spec.id
    report = sweep(catalog_ids(), 5, 999)
    assert report.summary()["fail"] == 0
    passes = {sid: 0 for sid in catalog_ids()}
    for row in report.rows:
        passes[row.spec_id] += row.outcome == "pass"
    assert min(passes.values()) >= 10, min(passes.items(), key=lambda kv: kv[1])


def _unit_root_square(rep: QuadRep) -> int:
    """A^2 / c_u mod p^4, for A = x_u + y r on unit_leading's form
    x_u^2 + d_u y^2 = c_u p, with r the root of -d_u lifted from x_u/y to p^4
    by Newton, as lemma23_check lifts it.  Its trace is X^2 - 2p and its norm
    p^2, so it is Lemma 2.3's unit root of z^2 - (X^2 - 2p) z + p^2."""
    u = unit_leading(rep)
    p, x, y, d, c = rep.p, u.x, u.y, u.form.d, u.form.c
    pk = p**4
    r = x * pow(y, -1, p)
    for _ in range(2):
        r = (r - (r * r + d) * pow(2 * r, -1, pk)) % pk
    a = (x + y * r) % pk
    return a * a * pow(c, -1, pk) % pk


def _quadratic_sides_against_lemma23(flip_r3: bool) -> tuple[list, list]:
    """(agreeing, disagreeing) (row id, p) pairs of every QF branch and every
    prime 5 <= p < 3000 that qualifies, matches the branch, does not divide
    2 a d c m and is represented by the form: rhs_value, with its p^2 term's
    sign flipped when flip_r3, against eps (u/p) A^2/c_u, eps = -r2/2."""
    agree, disagree = [], []
    for p in primes_in(5, 2999):
        ctx = PrimeContext(p)
        for spec in catalog():
            branch = spec.match_branch(p) if spec.qualifies(p) else None
            if branch is None or not isinstance(branch.rhs, QF):
                continue
            f = branch.rep
            if (2 * f.a * f.d * f.c * spec.m) % p == 0 or (rep := represent(p, f)) is None:
                continue
            if flip_r3:
                branch = dataclasses.replace(
                    branch, rhs=dataclasses.replace(branch.rhs, r3=-branch.rhs.r3))
            eps = -branch.rhs.r2 // 2
            want = eps * jacobi(branch.character, p) * _unit_root_square(rep)
            got = rhs_value(spec, branch, p, rep, ctx)
            (agree if got == want % p**spec.mod_exp else disagree).append((spec.id, p))
    return agree, disagree


def test_quadratic_sides_are_lemma23_unit_roots():
    agree, disagree = _quadratic_sides_against_lemma23(flip_r3=False)
    assert (len(agree), disagree) == (9582, [])


def test_lemma23_oracle_catches_a_flipped_p2_term():
    # flipping r3 moves the side by 2 eps p^2/X^2: caught mod p^3 at every pair,
    # and invisible only at R20.2's mod-p^2 pairs, where the p^2 term vanishes
    agree, disagree = _quadratic_sides_against_lemma23(flip_r3=True)
    assert (len(agree), len(disagree)) == (210, 9372)
    assert {lookup(sid).mod_exp for sid, _ in agree} == {2}
    assert {lookup(sid).mod_exp for sid, _ in disagree} == {3}


def test_quadratic_branch_needs_an_integral_4a_over_c():
    assert congruence._quadratic(PrimePredicate(), FormSpec(2, 3, 1), eps=-1).rhs == QF(-8, 2, 1, 8)
    with pytest.raises(ValueError, match="4a/c"):
        congruence._quadratic(PrimePredicate(), FormSpec(1, 7, 3))


def test_lhs_sum_frozen_examples():
    # big-integer oracle values, frozen: sum C(2k,k)^3, k <= 14, mod 29^3
    spec = lookup("T1.1")
    assert lhs_sum(spec, 29, PrimeContext(29)) == 5833
    row = verify(spec, 29)
    assert row.outcome == "pass" and row.lhs == row.rhs == 5833
    # alternating Apery sum at p=7: 1 - 5 + 73 - 1445 + 33001 - 819005 + 21460825
    spec = lookup("T1.29")
    assert lhs_sum(spec, 7, PrimeContext(7)) == 149
    row = verify(spec, 7)
    assert row.outcome == "pass" and row.rhs == 149 and (row.x, row.y) == (2, 1)


def test_rhs_quadratic():
    spec = lookup("T1.1")  # 4x^2 - 2p - p^2/(4x^2), character 1
    branch = spec.match_branch(29)
    rep = represent(29, FormSpec(1, 7, 1))
    val = rhs_value(spec, branch, 29, rep, PrimeContext(29))
    pk = 29**3
    expected = (4 - 58 - 29 * 29 * pow(4, -1, pk)) % pk
    assert val == expected

    # depends on x only through x^2
    flipped = QuadRep(-rep.x, rep.y, rep.form, rep.p)
    assert rhs_value(spec, branch, 29, flipped, PrimeContext(29)) == val
    # result is a unit: equals 4x^2 mod p
    assert val % 29 == 4 * rep.x * rep.x % 29


def test_rhs_quadratic_bad_denominator():
    spec = lookup("T1.1")
    rep = QuadRep(5, 1, FormSpec(1, 7, 1), 5)  # synthetic x divisible by p
    with pytest.raises(ValueError):
        rhs_value(spec, spec.branches[0], 5, rep, PrimeContext(5))


def test_rhs_invbinomsq_example():
    # p=3 on the p=3 mod 7 branch: -11 * 9 * C(1,0)^-2 = -99 = 9 mod 27
    spec = lookup("I1.1-b")
    branch = spec.match_branch(3)
    assert rhs_value(spec, branch, 3, None, PrimeContext(3)) == -99 % 27 == 9


def test_rhs_depends_only_on_x_squared():
    spec = lookup("T1.5")
    branch = spec.match_branch(3)
    rep = represent(3, branch.rep)
    base = rhs_value(spec, branch, 3, rep, PrimeContext(3))
    for flipped in (
        QuadRep(-rep.x, rep.y, rep.form, rep.p),
        QuadRep(rep.x, -rep.y, rep.form, rep.p),
        QuadRep(-rep.x, -rep.y, rep.form, rep.p),
    ):
        assert rhs_value(spec, branch, 3, flipped, PrimeContext(3)) == base


def test_theorem_1_1_pair_identity():
    """The two half sums agree up to the parity character, mod p^3."""
    a = lookup("T1.1")
    b = lookup("T1.1-b")
    for p in primes_in(5, 500):
        if not a.qualifies(p):
            continue
        ctx = PrimeContext(p)
        lhs_plain = lhs_sum(a, p, ctx)
        lhs_scaled = lhs_sum(b, p, ctx)
        sign = -1 if ((p - 1) // 2) % 2 else 1
        assert lhs_plain % p**3 == sign * lhs_scaled % p**3, p


def test_half_vs_full_cb3():
    """Upper-range terms of C(2k,k)^3/m^k vanish mod p^3."""
    for spec_id in ("T1.1", "T1.2", "T1.3", "T1.4"):
        spec = lookup(spec_id)
        for p in primes_in(5, 500):
            if spec.m % p == 0 or not spec.qualifies(p):
                continue
            ctx = PrimeContext(p)
            half = lhs_sum(spec, p, ctx)
            full_spec = dataclasses.replace(spec, limit="full")
            assert lhs_sum(full_spec, p, ctx) == half, (spec_id, p)


def test_sweep_skip_row():
    rep = sweep(["T1.1"], 5, 5)
    assert len(rep.rows) == 1
    assert rep.rows[0].outcome == "skip" and rep.rows[0].detail == "predicate"


@pytest.mark.parametrize("spec_id, lhs, rhs", [("T1.9", 7, 16), ("R9.2", 25, 16)])
def test_p3_lies_outside_the_sweep_domain(spec_id, lhs, rhs):
    # the mod-p^3 statement fails at p = 3 and holds there only mod p^2
    spec = lookup(spec_id)
    row = verify(spec, 3)
    assert (row.outcome, row.lhs, row.rhs) == ("fail", lhs, rhs)
    assert (row.lhs - row.rhs) % 9 == 0
    assert congruence.MIN_P == 5
    assert sweep([spec_id], 2, 3).rows == []
    assert sweep([spec_id], 3, 30).rows == sweep([spec_id], 5, 30).rows


def test_sweep_unknown_id():
    with pytest.raises(KeyError):
        sweep(["nope"], 5, 50)


def test_sweep_deterministic_across_workers():
    ids = ["T1.5", "T1.10", "T1.29", "R20.2"]
    seq = sweep(ids, 5, 120, workers=1)
    par = sweep(ids, 5, 120, workers=2)
    assert seq.rows == par.rows
    assert seq.summary()["fail"] == 0


@pytest.mark.parametrize("workers", [0, -5])
def test_sweep_rejects_no_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        sweep(["T1.29"], 5, 30, workers=workers)


def test_verify_detects_corruption():
    spec = lookup("T1.29")
    bad_branch = Branch(
        spec.branches[0].condition, spec.branches[0].rep,
        QF(4, -1, -1, 4), spec.branches[0].character,
    )
    bad = dataclasses.replace(spec, id="T1.29-corrupt", branches=(bad_branch,))
    p = 7
    assert spec.qualifies(p)
    assert verify(spec, p).outcome == "pass"
    assert verify(bad, p).outcome == "fail"


def test_report_anomaly_accounting():
    report = Report()
    report.extend(sweep(["T1.11"], 5, 60).rows)
    assert not report.anomalies()
    # an absent representation on a qualifying prime is flagged as an anomaly
    from supercong.quadforms import FormSpec

    impossible = Branch(PrimePredicate(), FormSpec(1, 7, 3), QF(4, -2, -1, 4))
    fake = CongruenceSpec(
        "fake", "proven", SequenceId.CB3, 1, "half", 3,
        PrimePredicate(residue_classes=(((1, 2, 4), 7),)), (impossible,), "",
    )
    row = verify(fake, 11)
    assert row.outcome == "skip" and row.detail == "representability-anomaly"
    report2 = Report()
    report2.add(row)
    assert report2.anomalies() == [row]


@pytest.mark.parametrize("status", ["proven", "conjectural", "cited"])
def test_verify_types_failing_rows(monkeypatch, status):
    # rows carry the catalog status; a non-proven failure's detail starts with it
    spec = lookup(catalog_ids((status,))[0])
    rows = [verify(spec, p) for p in primes_in(5, 300)]
    assert {r.status for r in rows} == {status}
    ok = next(r for r in rows if r.outcome == "pass" and r.lhs != 0)
    monkeypatch.setattr(congruence, "rhs_value", lambda *args: 0)
    row = verify(spec, ok.p)
    assert row.outcome == "fail" and row.status == status
    want = f"lhs-rhs={row.lhs % ok.p ** spec.mod_exp}"
    assert row.detail == (want if status == "proven" else f"{status} {want}")


def test_sweep_turns_an_exception_into_an_error_row(monkeypatch):
    ids = ["T1.1", "I1.5-b"]  # proven and conjectural, both checked at p = 11, 23, 43
    clean = sweep(ids, 5, 200)
    assert exit_code_for(clean) == 0 and "error" not in clean.summary()
    passing = {}
    for row in clean.rows:
        passing.setdefault(row.p, set()).add(row.outcome == "pass")
    bad_p = min(p for p, ok in passing.items() if ok == {True})
    real = congruence.rhs_value

    def broken(spec, branch, p, *args):
        if p == bad_p:
            raise ZeroDivisionError("boom")
        return real(spec, branch, p, *args)

    monkeypatch.setattr(congruence, "rhs_value", broken)
    report = sweep(ids, 5, 200)
    assert len(report.rows) == len(clean.rows)
    for got, want in zip(report.rows, clean.rows):
        if got.p != bad_p:
            assert got == want
        else:
            assert (got.spec_id, got.outcome, got.status) == (want.spec_id, "error", want.status)
            assert got.detail == "ZeroDivisionError: boom"
    assert report.summary()["error"] == 2
    assert exit_code_for(report) == EXIT_FAIL


def test_error_row_keeps_the_rest_of_the_cli_report(monkeypatch, capsys):
    real = congruence.rhs_value

    def broken(spec, branch, p, *args):
        if p == 23:
            raise ZeroDivisionError("boom")
        return real(spec, branch, p, *args)

    monkeypatch.setattr(congruence, "rhs_value", broken)
    argv = ["verify", "congruences", "--theorem", "T1.1", "--max-p", "60", "--format", "csv"]
    assert main(argv) == EXIT_FAIL
    rows = capsys.readouterr().out.splitlines()
    assert "T1.1,23,error,,,," in rows
    assert sum(",pass," in r for r in rows) == 5  # 11, 29, 37, 43, 53


@pytest.mark.parametrize("workers, hi, want", [(8, 7, 2), (8, 11, 3), (2, 60, 2), (3, 5, 1)])
def test_sweep_starts_at_most_one_process_per_prime(monkeypatch, workers, hi, want):
    # min(workers, number of primes in [5, hi]) processes; one runs without a pool
    started = []

    class FakePool:
        """Records its size and maps in this process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return list(map(fn, args))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    report = sweep(["T1.29"], 5, hi, workers=workers)
    assert report.rows == sweep(["T1.29"], 5, hi).rows
    assert started == ([want] if want > 1 else [])
